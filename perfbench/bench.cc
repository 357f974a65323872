#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>

#include "ampi/ampi.h"
#include "converse/machine.h"
#include "trace/metrics.h"
#include "ult/scheduler.h"

namespace perfbench {

namespace {
std::atomic<int> g_reported_failures{0};
constexpr int kMaxReportedFailures = 8;
}  // namespace

void Checks::expect(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (g_reported_failures.fetch_add(1) < kMaxReportedFailures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  }
}

Episode::Episode(int flows, bool traced_, std::uint64_t seed)
    : traced(traced_), checks(static_cast<std::size_t>(flows)) {
  if (!traced) return;
  tracers.reserve(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    tracers.emplace_back(seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<std::uint64_t>(f));
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

Counters Counters::read() {
  namespace m = mfc::metrics;
  Counters c;
  c.msgs = mfc::converse::messages_sent();
  c.wire_frames = m::total(m::Counter::kWireSentFrames);
  c.wire_bytes = m::total(m::Counter::kWireSentBytes);
  c.wire_chunks = m::total(m::Counter::kWireChunks);
  return c;
}

void pin_pe_thread(int pe) {
  thread_local int pinned = -1;
  if (pinned == pe) return;
  // CPUs of the main thread's mask, highest first; the main thread is never
  // a PE, so its mask is the one the process started with.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(getpid(), sizeof set, &set) == 0) {
      for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(pe) % cpus.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) pinned = pe;
}

std::uint64_t ampi_pe_dispatches() {
  namespace ampi = mfc::ampi;
  const std::vector<int> placement = ampi::rank_placement();
  const int me = ampi::rank();
  const int pe = ampi::my_pe();
  bool lowest = true;
  for (int r = 0; r < me; ++r) {
    if (placement[static_cast<std::size_t>(r)] == pe) {
      lowest = false;
      break;
    }
  }
  const std::uint64_t mine = lowest ? mfc::ult::dispatch_count() : 0;
  return ampi::allreduce_one<std::uint64_t>(mine, ampi::Op::kSum);
}

void record_machine_layers(Episode& ep, const Counters& before,
                           const Counters& after, std::uint64_t dispatches,
                           int iterations) {
  namespace m = mfc::metrics;
  const double iters = iterations > 0 ? iterations : 1;
  const auto per_iter = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / iters;
  };
  ep.layer["converse.msgs_per_iter"] = per_iter(before.msgs, after.msgs);
  ep.layer["converse.wire_frames_per_iter"] =
      per_iter(before.wire_frames, after.wire_frames);
  ep.layer["converse.wire_bytes_per_iter"] =
      per_iter(before.wire_bytes, after.wire_bytes);
  ep.layer["converse.wire_chunks"] =
      static_cast<double>(after.wire_chunks - before.wire_chunks);
  ep.layer["ult.switches_per_iter"] = static_cast<double>(dispatches) / iters;

  // The machine's books stay readable after Machine::run returns.
  const mfc::converse::PoolStats pool = mfc::converse::pool_stats();
  const double got = static_cast<double>(pool.recycled + pool.allocated);
  ep.layer["converse.pool_hit_frac"] =
      got > 0 ? static_cast<double>(pool.recycled) / got : 0;
  ep.layer["migrate.packs"] = static_cast<double>(
      m::total(m::Counter::kPackIso) + m::total(m::Counter::kPackStackCopy) +
      m::total(m::Counter::kPackMemAlias));
  ep.layer["migrate.unpacks"] = static_cast<double>(
      m::total(m::Counter::kUnpackIso) +
      m::total(m::Counter::kUnpackStackCopy) +
      m::total(m::Counter::kUnpackMemAlias));
  ep.layer["charm.elem_migrations"] =
      static_cast<double>(m::total(m::Counter::kElemMigrations));
}

}  // namespace perfbench
