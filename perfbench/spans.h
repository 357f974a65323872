// Benchmark-side spans: the benchmark times each runtime layer from the
// outside, around calls into that layer's public functions, and keeps the
// spans in memory until the run ends.
//
// One Tracer belongs to one flow of control (an AMPI rank, a chare element,
// the chare-round driver). Only that flow writes it, on whatever PE it runs,
// so recording takes no lock; the driver reads it after the machine stops.
// Tracers never live in a rank's isomalloc heap, so they stay put when the
// rank migrates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// The runtime layers the ledger attributes time to. kApp is the
/// benchmark's own code (output checks, buffer filling, loop control).
enum class Layer : std::uint8_t {
  kApp, kAmpi, kCharm, kIso, kLb, kNasmz, kCount
};
inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

/// Public-call boundaries the benchmark times; each belongs to one layer.
enum class Op : std::uint8_t {
  kIter,            ///< app: one iteration of the driver's loop
  kAmpiSend,        ///< ampi::send
  kAmpiIrecv,       ///< ampi::irecv (posting a receive)
  kAmpiWait,        ///< ampi::wait / wait_all
  kAmpiMigrateTo,   ///< ampi::migrate_to
  kAmpiLbStep,      ///< ampi::migrate (gather loads, strategy, move)
  kCharmSend,       ///< charm::ArrayBase::send
  kCharmWait,       ///< driver parked until a charm reduction completes
  kIsoMalloc,       ///< iso::ThreadHeap::malloc
  kLbStrategy,      ///< lb::greedy_lb, through Options::lb_strategy
  kNasmzExchange,   ///< zone ghost exchange (face packing + ampi calls)
  kNasmzCompute,    ///< zone sweep
  kCount
};
inline constexpr int kOpCount = static_cast<int>(Op::kCount);

Layer layer_of(Op op);
const char* op_name(Op op);
const char* layer_name(Layer layer);

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Uniform sample of at most `cap` of the values added (Algorithm R).
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap = 0, std::uint64_t seed = 1)
      : cap_(cap), rng_(seed | 1) {}

  void add(const T& v) {
    ++seen_;
    if (kept_.size() < cap_) {
      kept_.push_back(v);
    } else if (const std::uint64_t j = next_random() % seen_; j < cap_) {
      kept_[j] = v;
    }
  }
  const std::vector<T>& values() const { return kept_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t next_random() {
    // xorshift64: uniform-enough indices for sampling, and cheap.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  std::size_t cap_;
  std::uint64_t rng_;
  std::uint64_t seen_ = 0;
  std::vector<T> kept_;
};

class Tracer {
 public:
  /// Spans kept per op for percentiles (uniform reservoir sample).
  static constexpr std::size_t kReservoir = 512;
  /// Raw spans kept per tracer for the span dump (the first ones).
  static constexpr std::size_t kRawCap = 256;

  struct Sample {
    std::uint32_t dur_ns;
    std::uint32_t self_ns;  ///< duration minus time covered by child spans
  };
  struct Raw {
    std::uint64_t t0_ns, t1_ns;
    std::uint32_t id, parent;  ///< parent 0 = root
    Op op;
  };

  explicit Tracer(std::uint64_t seed = 1) {
    for (int o = 0; o < kOpCount; ++o) {
      samples_[o] =
          Reservoir<Sample>(kReservoir, seed + static_cast<std::uint64_t>(o));
    }
  }

  void begin(Op op);
  void end();

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<int>(layer)];
  }
  std::uint64_t total_ns(Op op) const {
    return total_ns_[static_cast<int>(op)];
  }
  const std::vector<Sample>& samples(Op op) const {
    return samples_[static_cast<int>(op)].values();
  }
  const std::vector<Raw>& raw() const { return raw_; }

 private:
  struct Frame {
    Op op;
    std::uint32_t id;
    std::uint64_t t0_ns;
    std::uint64_t child_ns;
  };
  static constexpr int kMaxDepth = 8;

  Frame stack_[kMaxDepth] = {};
  int depth_ = 0;
  std::uint32_t next_id_ = 1;
  std::uint64_t self_ns_[kLayerCount] = {};
  std::uint64_t total_ns_[kOpCount] = {};
  Reservoir<Sample> samples_[kOpCount];
  std::vector<Raw> raw_;
};

/// RAII span. A null tracer (untraced episode) costs one branch.
class Span {
 public:
  Span(Tracer* tracer, Op op) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Median of the span durations (ns) pooled over `tracers` for `op`;
/// 0 when no span of that op was recorded.
double pooled_p50_ns(std::span<const Tracer> tracers, Op op);

/// Sum over `tracers` of the total span time (ns) of `op`.
double pooled_total_ns(std::span<const Tracer> tracers, Op op);

}  // namespace perfbench
