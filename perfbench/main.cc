// The repository benchmark driver: runs one workload for a fixed time as a
// sequence of episodes and prints every metric by name with its unit.
//
//   perfbench --workload <halo_fine|migrate_churn|btmz_lb|chare_shm>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 times the end-to-end metrics with no spans recorded. --trace 1
// alternates traced and untraced episodes: per-layer metrics and the ledger
// come from the traced ones, the tracing overhead from comparing the two.
// The last stdout line is the result object; the line before it is the full
// report (host fingerprint, sample counts, error rate, every metric).
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"time_to_solution_s", "s"}, {"iter_us_p50", "us"}, {"iter_us_p99", "us"},
    {"cpu_s", "s"},              {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"ampi.send_ns_p50", "ns"},
    {"ampi.wait_us_p50", "us"},
    {"ampi.migrate_to_us_p50", "us"},
    {"ampi.lb_step_ms", "ms"},
    {"converse.msgs_per_iter", "count"},
    {"converse.pool_hit_frac", "fraction"},
    {"converse.wire_frames_per_iter", "count"},
    {"converse.wire_bytes_per_iter", "B"},
    {"converse.wire_chunks", "count/episode"},
    {"ult.switches_per_iter", "count"},
    {"migrate.packs", "count/episode"},
    {"migrate.unpacks", "count/episode"},
    {"migrate.bytes_per_step", "B-computed"},
    {"migrate.MBps", "MB/s"},
    {"iso.heap_malloc_us", "us"},
    {"iso.heap_slot_bytes", "B"},
    {"lb.strategy_us", "us"},
    {"lb.imbalance_before", "ratio"},
    {"lb.imbalance_after", "ratio"},
    {"lb.migrations", "count/episode"},
    {"nasmz.compute_ms_per_iter", "ms"},
    {"nasmz.exchange_ms_per_iter", "ms"},
    {"charm.send_ns_p50", "ns"},
    {"charm.migrate_round_us_p50", "us"},
    {"charm.plain_round_us_p50", "us"},
    {"charm.elem_migrations", "count/episode"},
    {"ledger.self_us_per_iter.app", "us"},
    {"ledger.self_us_per_iter.ampi", "us"},
    {"ledger.self_us_per_iter.charm", "us"},
    {"ledger.self_us_per_iter.iso", "us"},
    {"ledger.self_us_per_iter.lb", "us"},
    {"ledger.self_us_per_iter.nasmz", "us"},
    {"ledger.unaccounted_frac", "fraction"},
    {"ledger.trace_overhead_frac", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why);
  std::exit(2);
}

/// Interquartile range as a share of the median (0 for an empty set).
double iqr_share(const std::vector<double>& v) {
  const double m = median(v);
  return m != 0 ? (percentile(v, 0.75) - percentile(v, 0.25)) / m : 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unavailable";
  return line;
}

/// Aggregate steal and total jiffies from /proc/stat ({0, 0} if unreadable).
std::pair<double, double> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return {0, 0};
  double total = 0;
  for (double& x : v) {
    if (!(in >> x)) return {0, 0};
    total += x;
  }
  return {v[7], total};
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
  return CPU_COUNT(&set);
}

/// One spinning process per CPU at SCHED_IDLE priority, for the life of the
/// run. A PE that parks would otherwise let its vCPU halt; on a virtual
/// machine the halted vCPU then waits for the hypervisor to schedule it
/// again once the PE is woken. That wait shows up as steal time, depends on
/// the other tenants of the host, and moved wall-clock metrics by up to 4x
/// between runs. A SCHED_IDLE task runs only when nothing else wants the
/// CPU and is preempted on every wakeup, so PEs keep the whole CPU while
/// the vCPU never halts, much as booting with idle=poll does. The spinners
/// are separate processes, so they count in neither cpu_s nor peak_rss_mb
/// (perfbench/NOTES.md, "Host noise").
class IdleSpinners {
 public:
  IdleSpinners() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    const pid_t parent = getpid();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      const pid_t pid = fork();
      if (pid == 0) spin(cpu, parent);
      if (pid > 0) pids_.push_back(pid);
    }
  }
  ~IdleSpinners() {
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    for (const pid_t pid : pids_) waitpid(pid, nullptr, 0);
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  int count() const { return static_cast<int>(pids_.size()); }

 private:
  [[noreturn]] static void spin(int cpu, pid_t parent) {
    // Die with the driver, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    const sched_param prio{};
    sched_setscheduler(0, SCHED_IDLE, &prio);
    // Yield rather than pause: a PE that yields while waiting (util/queue.h)
    // then gets its CPU back at once instead of after a scheduler tick.
    for (;;) sched_yield();
  }

  std::vector<pid_t> pids_;
};

/// The host and environment every result is recorded with.
std::string host_fingerprint(int nproc) {
  std::string model = "unavailable";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"nproc\": " << nproc << ", \"cpu_model\": \"" << json_escape(model)
    << "\", \"kernel\": \"" << json_escape(u.release)
    << "\", \"governor\": \""
    << json_escape(read_first_line(
           "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
    << "\", \"npes\": " << kPes << ", \"build_type\": \""
    << MFC_PERFBENCH_BUILD_TYPE << "\", \"env\": {";
  std::vector<std::string> vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MFC_", 4) == 0) vars.emplace_back(*e);
  }
  std::sort(vars.begin(), vars.end());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const std::size_t eq = vars[i].find('=');
    o << (i ? ", " : "") << '"' << json_escape(vars[i].substr(0, eq))
      << "\": \"" << json_escape(vars[i].substr(eq + 1)) << '"';
  }
  o << "}}";
  return o.str();
}

/// Ledger of one traced episode, on the driver's timeline (flow 0): self
/// time per layer per iteration, and the median share of an iteration that
/// no timed runtime call covers.
void record_ledger(Episode& ep) {
  const Tracer& driver = ep.tracers[0];
  const double iters =
      std::max<double>(1, static_cast<double>(ep.iter_us.size()));
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    ep.layer[std::string("ledger.self_us_per_iter.") + layer_name(layer)] =
        static_cast<double>(driver.self_ns(layer)) / iters / 1e3;
  }
  std::vector<double> shares;
  for (const Tracer::Sample& s : driver.samples(Op::kIter)) {
    if (s.dur_ns > 0) {
      shares.push_back(static_cast<double>(s.self_ns) / s.dur_ns);
    }
  }
  ep.layer["ledger.unaccounted_frac"] = median(shares);
}

/// Writes the raw spans of one traced episode as a Chrome/Perfetto trace.
void write_spans(const std::string& path, const std::vector<Tracer>& tracers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Tracer& t : tracers) {
    for (const Tracer::Raw& r : t.raw()) origin = std::min(origin, r.t0_ns);
  }
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t flow = 0; flow < tracers.size(); ++flow) {
    for (const Tracer::Raw& r : tracers[flow].raw()) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << op_name(r.op)
          << "\", \"cat\": \"" << layer_name(layer_of(r.op))
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << flow
          << ", \"ts\": " << num(static_cast<double>(r.t0_ns - origin) / 1e3)
          << ", \"dur\": " << num(static_cast<double>(r.t1_ns - r.t0_ns) / 1e3)
          << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
          << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
}

int run(int argc, char** argv) {
  Config cfg;
  std::string spans_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }

  // One core stays free for the OS and this driver: with a PE on every
  // core the fine-grained workloads measured several times noisier.
  const int nproc = online_cpus();
  if (kPes >= nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing npes=%d on a host with nproc=%d "
                 "(need npes <= nproc - 1)\n",
                 kPes, nproc);
    return 2;
  }

  std::unique_ptr<Workload> wl;
  if (cfg.workload == "halo_fine") {
    wl = make_halo_fine(cfg);
  } else if (cfg.workload == "migrate_churn") {
    wl = make_migrate_churn(cfg);
  } else if (cfg.workload == "btmz_lb") {
    wl = make_btmz_lb(cfg);
  } else if (cfg.workload == "chare_shm") {
    wl = make_chare_shm(cfg);
  } else {
    usage(("unknown workload '" + cfg.workload + "'").c_str());
  }

  // Forked before any thread exists (workload construction starts none).
  const IdleSpinners spinners;

  if (const int missed = wl->self_test(); missed != 0) {
    std::fprintf(stderr,
                 "perfbench: %d output check(s) failed their self-test\n",
                 missed);
    return 3;
  }

  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const Episode& ep) {
    for (const Checks& c : ep.checks) {
      attempted += c.attempted;
      failed += c.failed;
    }
  };

  // Warm-up: lazy set-up (handler registration, first-touch of the
  // isomalloc region, shm segments) finishes before anything is timed.
  {
    Episode warm(wl->flows(), false, cfg.seed);
    wl->run(warm);
    tally(warm);
  }

  // Only summaries of each episode are kept, so the driver's own memory
  // barely grows with the episode count (peak_rss_mb would otherwise rise on
  // a faster runtime). Iteration percentiles are taken per episode and the
  // run reports their median: a pooled p99 followed the few iterations a
  // busy host stalled, and moved with the host's steal from run to run.
  std::vector<double> tts, cpu, setup, traced_tts, iter_p50, iter_p99;
  std::uint64_t iter_samples = 0;
  std::vector<std::map<std::string, double>> layers;  // per traced episode
  std::vector<Tracer> dump;  // raw spans of the first traced episode
  constexpr std::size_t kMinEpisodes = 3;
  const auto steal0 = steal_jiffies();
  const double deadline = wall_s() + cfg.seconds;
  for (std::uint64_t n = 0;; ++n) {
    const bool enough = tts.size() >= kMinEpisodes &&
                        (!cfg.trace || layers.size() >= kMinEpisodes);
    if (enough && wall_s() >= deadline) break;
    const bool trace_this = cfg.trace && n % 2 == 0;
    Episode ep(wl->flows(), trace_this, cfg.seed + n);
    wl->run(ep);
    tally(ep);
    if (trace_this) {
      record_ledger(ep);
      traced_tts.push_back(ep.loop_s);
      layers.push_back(std::move(ep.layer));
      if (dump.empty()) dump = std::move(ep.tracers);
    } else {
      tts.push_back(ep.loop_s);
      cpu.push_back(ep.cpu_s);
      setup.push_back(ep.setup_s);
      iter_p50.push_back(percentile(ep.iter_us, 0.50));
      iter_p99.push_back(percentile(ep.iter_us, 0.99));
      iter_samples += ep.iter_us.size();
    }
  }

  // Share of the guest's CPU time the hypervisor took away while measuring:
  // wall-clock metrics inflate with it, CPU time much less.
  const auto steal1 = steal_jiffies();
  const double steal_frac =
      steal1.second > steal0.second
          ? (steal1.first - steal0.first) / (steal1.second - steal0.second)
          : 0;

  // ---- End to end, from untraced episodes ----
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::map<std::string, double> values;
  values["time_to_solution_s"] = median(tts);
  values["iter_us_p50"] = median(iter_p50);
  values["iter_us_p99"] = median(iter_p99);
  values["cpu_s"] = median(cpu);
  values["setup_s"] = median(setup);
  values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // ---- Per layer, from traced episodes ----
  if (cfg.trace) {
    for (const Metric& m : kPerLayer) {
      std::vector<double> per_episode;
      for (const auto& layer : layers) {
        const auto it = layer.find(m.name);
        per_episode.push_back(it == layer.end() ? 0 : it->second);
      }
      values[m.name] = median(per_episode);
    }
    values["ledger.trace_overhead_frac"] = median(traced_tts) / median(tts) - 1;
    if (!spans_out.empty()) write_spans(spans_out, dump);
  }

  const double error_rate =
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 1;
  std::ostringstream rep;
  rep << "{\"report\": {\"workload\": \"" << cfg.workload
      << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << num(cfg.seconds)
      << ", \"trace\": " << (cfg.trace ? 1 : 0)
      << ", \"host\": " << host_fingerprint(nproc)
      << ", \"idle_spinners\": " << spinners.count()
      << ", \"steal_frac\": " << num(steal_frac)
      << ", \"episode_spread\": {\"time_to_solution_s\": "
      << num(iqr_share(tts))
      << ", \"cpu_s\": " << num(iqr_share(cpu))
      << ", \"setup_s\": " << num(iqr_share(setup)) << "}"
      << ", \"episodes_untraced\": " << tts.size()
      << ", \"episodes_traced\": " << layers.size()
      << ", \"iter_samples\": " << iter_samples
      << ", \"checks_attempted\": " << attempted
      << ", \"checks_failed\": " << failed
      << ", \"error_rate\": {\"value\": " << num(error_rate)
      << ", \"unit\": \"fraction\"}, \"metrics\": {";
  bool first = true;
  const auto emit = [&](std::ostringstream& o, const Metric& m) {
    o << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
      << num(values[m.name]) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  for (const Metric& m : kEndToEnd) emit(rep, m);
  if (cfg.trace) {
    for (const Metric& m : kPerLayer) emit(rep, m);
  }
  rep << "}}}";
  std::printf("%s\n", rep.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  first = true;
  if (cfg.trace) {
    for (const Metric& m : kPerLayer) emit(res, m);
  } else {
    for (const Metric& m : kEndToEnd) emit(res, m);
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
