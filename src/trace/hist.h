// Lock-free per-PE latency histograms (HDR-style log-bucketed).
//
// The gateway/SLO story needs p50/p99/p999 over millions of samples with a
// hot path as cheap as a counter bump. Layout follows the metrics registry:
// per-PE cache-line-isolated slots written single-writer (relaxed
// load+store — no lock-prefixed RMW), a shared fetch_add slot for unbound
// threads, snapshot/merge for readers. Values are recorded in raw rdtsc
// ticks (zero conversion on the hot path); the ns conversion happens once,
// at dump time, against the probe's session-long TscAnchor.
//
// Bucketing: values < 32 land in unit-width linear buckets; above that,
// each power-of-two octave splits into 32 subbuckets, giving a bounded
// ~3% relative error up to 2^44 ticks (hours) in 1280 buckets (10 KiB)
// per histogram per slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace mfc::hist {

/// The tracked latency distributions.
enum class Hist : int {
  kQueueWait = 0,     ///< message enqueue → dispatch (scheduler queue wait)
  kHandlerService,    ///< converse handler execution time
  kMigratePack,       ///< thread pack duration (all techniques)
  kMigrateUnpack,     ///< thread unpack duration
  kMigrateE2e,        ///< pack end on source → unpack end on destination
  kCount,
};
constexpr int kHistCount = static_cast<int>(Hist::kCount);

const char* to_string(Hist h);

constexpr int kSubBits = 5;                    ///< 32 subbuckets per octave
constexpr int kSubCount = 1 << kSubBits;
constexpr int kMaxBits = 44;                   ///< clamp: 2^44 ticks ≈ hours
constexpr int kBucketCount = kSubCount + (kMaxBits - kSubBits) * kSubCount;

/// Bucket index for a raw value: exact below kSubCount, then log-bucketed
/// with kSubBits bits of mantissa. Branch-light: one bit-scan + shifts.
inline int bucket_index(std::uint64_t v) {
  if (v < kSubCount) return static_cast<int>(v);
  int m = 63 - __builtin_clzll(v);  // v >= 32 so m >= kSubBits
  if (m >= kMaxBits) m = kMaxBits - 1;
  const std::uint64_t sub = (v >> (m - kSubBits)) & (kSubCount - 1);
  return kSubCount + (m - kSubBits) * kSubCount + static_cast<int>(sub);
}

/// Smallest value mapping to bucket `idx`.
inline std::uint64_t bucket_floor(int idx) {
  if (idx < kSubCount) return static_cast<std::uint64_t>(idx);
  const int m = kSubBits + (idx - kSubCount) / kSubCount;
  const int sub = (idx - kSubCount) % kSubCount;
  return (std::uint64_t{1} << m) +
         (static_cast<std::uint64_t>(sub) << (m - kSubBits));
}

/// Bucket width (1 for the linear range, 2^(m-kSubBits) per octave).
inline std::uint64_t bucket_width(int idx) {
  if (idx < kSubCount) return 1;
  const int m = kSubBits + (idx - kSubCount) / kSubCount;
  return std::uint64_t{1} << (m - kSubBits);
}

namespace detail {
// Recording gate: plain bool, flipped only while no PE loop is running,
// read racily-but-benignly — off costs one predicted branch, exactly like
// the trace gate.
extern bool g_on;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> b[kHistCount][kBucketCount] = {};
  std::atomic<std::uint64_t> sum[kHistCount] = {};
  std::atomic<std::uint64_t> max[kHistCount] = {};
};

extern Slot* g_slots;  ///< npes per-PE slots + 1 shared; swapped by reset()
extern int g_npes;

/// One sample (raw ticks) into `s` — the caller's bound slot, written
/// single-writer — or, when `s` is null, into the shared slot by fetch_add.
/// Dropped before reset().
inline void add(Slot* s, Hist h, std::uint64_t ticks) {
  const int hi = static_cast<int>(h);
  const int bi = bucket_index(ticks);
  if (s != nullptr) {
    auto& b = s->b[hi][bi];
    b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    auto& sum = s->sum[hi];
    sum.store(sum.load(std::memory_order_relaxed) + ticks,
              std::memory_order_relaxed);
    auto& mx = s->max[hi];
    if (ticks > mx.load(std::memory_order_relaxed)) {
      mx.store(ticks, std::memory_order_relaxed);
    }
    return;
  }
  if (g_slots == nullptr) return;
  Slot& sh = g_slots[g_npes];
  sh.b[hi][bi].fetch_add(1, std::memory_order_relaxed);
  sh.sum[hi].fetch_add(ticks, std::memory_order_relaxed);
  std::uint64_t prev = sh.max[hi].load(std::memory_order_relaxed);
  while (ticks > prev &&
         !sh.max[hi].compare_exchange_weak(prev, ticks,
                                           std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// True when recording is enabled (one predicted branch when off — callers
/// gate their rdtsc reads on this, so a stats-off run never pays a clock
/// read).
inline bool on() { return detail::g_on; }

/// Records one sample (raw ticks) on the calling thread's probe binding
/// (probe.h); the probe's event table records the runtime's own
/// intervals, this is for samples no single event brackets.
void record(Hist h, std::uint64_t ticks);

/// (Re)allocates npes+1 slots, zeroed. Must run while no PE loop is
/// running.
void reset(int npes);
/// Flips the recording gate (quiescent callers only). While it is on,
/// Machine::run leaves the histograms to whoever armed them.
void enable(bool on);

/// Point-in-time merged copy of every slot. ~50 KiB — treat as a heap
/// object (the storm driver and dumps allocate one, not ULT stacks).
struct Snapshot {
  std::uint64_t b[kHistCount][kBucketCount] = {};
  std::uint64_t sum[kHistCount] = {};
  std::uint64_t max[kHistCount] = {};

  std::uint64_t count(Hist h) const;
  /// Representative value (bucket midpoint, raw ticks) at quantile q in
  /// [0,1]; 0 on an empty histogram. q=0.999 is p999.
  std::uint64_t quantile(Hist h, double q) const;
  double mean(Hist h) const;
  /// Element-wise accumulate; associative and commutative (bucket adds +
  /// max of max), so merge order across PEs/processes cannot matter.
  void merge(const Snapshot& other);
};

Snapshot snapshot();

/// Writes the stats dump: metrics counters (with provenance) + per-
/// histogram count/p50/p99/p999/max/mean in nanoseconds, as one JSON
/// object. Returns false if the file could not be written.
bool write_stats_json(const std::string& path);

}  // namespace mfc::hist
