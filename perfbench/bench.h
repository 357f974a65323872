// Shared types of the repository benchmark (see perfbench/NOTES.md).
//
// A workload is a closed loop run as a sequence of episodes. Each episode
// boots a fresh machine, creates its flows of control (AMPI ranks or chare
// elements) and their state, runs a fixed number of iterations, checks the
// outputs and shuts the machine down. The driver repeats episodes until the
// run's time is up and reports medians over them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace perfbench {

/// PEs every workload runs on. The driver refuses hosts with fewer than
/// kPes + 1 CPUs: one core stays free for the OS and the driver itself.
inline constexpr int kPes = 3;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Output checks made by one flow of control; the driver sums them.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one check; reports the first few failures on stderr.
  void expect(bool ok, const char* what);
};

struct Episode {
  Episode(int flows, bool traced, std::uint64_t seed);

  /// Flow 0 is always the driver: AMPI rank 0, or the chare-round driver.
  Tracer* tracer(int flow) { return traced ? &tracers[flow] : nullptr; }

  bool traced;
  std::vector<Tracer> tracers;  ///< one per flow when traced, else empty
  std::vector<Checks> checks;   ///< one per flow

  double setup_s = 0;  ///< machine boot + flow creation + state fill
  double loop_s = 0;   ///< wall time of the measured loop
  double cpu_s = 0;    ///< process CPU time over the measured loop
  std::vector<double> iter_us;  ///< per iteration, as the driver sees it
  /// Per-layer values of this episode, by metric name.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int flows() const = 0;
  /// Runs one episode. Inputs were generated from the seed at construction.
  virtual void run(Episode& ep) = 0;
  /// Makes every output check fire on deliberately wrong data; returns the
  /// number of checks that failed to fire (0 = all checks are live).
  virtual int self_test() const = 0;
};

std::unique_ptr<Workload> make_halo_fine(const Config& cfg);
std::unique_ptr<Workload> make_migrate_churn(const Config& cfg);
std::unique_ptr<Workload> make_btmz_lb(const Config& cfg);
std::unique_ptr<Workload> make_chare_shm(const Config& cfg);

/// Nearest-rank percentile of `v`, q in (0, 1]; 0 for an empty set.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// steady_clock seconds.
double wall_s();
/// CPU seconds (user + system) of the whole process.
double process_cpu_s();

/// Runtime counters the per-layer metrics are computed from
/// (metrics::total and converse::messages_sent).
struct Counters {
  std::uint64_t msgs = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_chunks = 0;
  static Counters read();
};

/// Pins the calling PE thread to its own CPU: PE 0 gets the highest CPU of
/// the process's affinity mask, PE 1 the next one down, and so on, so the
/// lowest stays free for the driver and the OS. Every flow calls this
/// before its set-up; calls after the first on a thread return at once.
/// Unpinned, the guest scheduler sometimes stacked all PE threads of an
/// episode on one CPU, which tripled btmz_lb's time (perfbench/NOTES.md,
/// "Host noise").
void pin_pe_thread(int pe);

/// Collective over AMPI ranks: the sum over PEs of ult::dispatch_count(),
/// read by the lowest-numbered rank resident on each PE.
std::uint64_t ampi_pe_dispatches();

/// Fills the per-layer entries every workload reports from the counters
/// around its measured loop and the machine's books after it.
void record_machine_layers(Episode& ep, const Counters& before,
                           const Counters& after, std::uint64_t dispatches,
                           int iterations);

}  // namespace perfbench
