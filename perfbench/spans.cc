#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>

namespace perfbench {

Layer layer_of(Op op) {
  switch (op) {
    case Op::kIter: return Layer::kApp;
    case Op::kAmpiSend:
    case Op::kAmpiIrecv:
    case Op::kAmpiWait:
    case Op::kAmpiMigrateTo:
    case Op::kAmpiLbStep: return Layer::kAmpi;
    case Op::kCharmSend:
    case Op::kCharmWait: return Layer::kCharm;
    case Op::kIsoMalloc: return Layer::kIso;
    case Op::kLbStrategy: return Layer::kLb;
    case Op::kNasmzExchange:
    case Op::kNasmzCompute: return Layer::kNasmz;
    case Op::kCount: break;
  }
  std::abort();
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kIter: return "app.iter";
    case Op::kAmpiSend: return "ampi.send";
    case Op::kAmpiIrecv: return "ampi.irecv";
    case Op::kAmpiWait: return "ampi.wait";
    case Op::kAmpiMigrateTo: return "ampi.migrate_to";
    case Op::kAmpiLbStep: return "ampi.lb_step";
    case Op::kCharmSend: return "charm.send";
    case Op::kCharmWait: return "charm.wait_reduction";
    case Op::kIsoMalloc: return "iso.heap_malloc";
    case Op::kLbStrategy: return "lb.strategy";
    case Op::kNasmzExchange: return "nasmz.exchange";
    case Op::kNasmzCompute: return "nasmz.compute";
    case Op::kCount: break;
  }
  std::abort();
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kApp: return "app";
    case Layer::kAmpi: return "ampi";
    case Layer::kCharm: return "charm";
    case Layer::kIso: return "iso";
    case Layer::kLb: return "lb";
    case Layer::kNasmz: return "nasmz";
    case Layer::kCount: break;
  }
  std::abort();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::begin(Op op) {
  if (depth_ == kMaxDepth) std::abort();
  stack_[depth_++] = Frame{op, next_id_++, now_ns(), 0};
}

void Tracer::end() {
  if (depth_ == 0) std::abort();
  const std::uint64_t t1 = now_ns();
  const Frame f = stack_[--depth_];
  const std::uint64_t dur = t1 - f.t0_ns;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;

  const int o = static_cast<int>(f.op);
  self_ns_[static_cast<int>(layer_of(f.op))] += self;
  total_ns_[o] += dur;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  samples_[o].add(Sample{static_cast<std::uint32_t>(std::min(dur, kMax)),
                         static_cast<std::uint32_t>(std::min(self, kMax))});
  if (raw_.size() < kRawCap) {
    raw_.push_back(Raw{f.t0_ns, t1, f.id,
                       depth_ > 0 ? stack_[depth_ - 1].id : 0, f.op});
  }
}

double pooled_p50_ns(std::span<const Tracer> tracers, Op op) {
  std::vector<std::uint32_t> all;
  for (const Tracer& t : tracers) {
    for (const Tracer::Sample& s : t.samples(op)) all.push_back(s.dur_ns);
  }
  if (all.empty()) return 0;
  const auto mid = all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2);
  std::nth_element(all.begin(), mid, all.end());
  return *mid;
}

double pooled_total_ns(std::span<const Tracer> tracers, Op op) {
  double sum = 0;
  for (const Tracer& t : tracers) sum += static_cast<double>(t.total_ns(op));
  return sum;
}

}  // namespace perfbench
