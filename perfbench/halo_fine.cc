// halo_fine: per-message runtime overhead. 48 AMPI ranks in a ring; every
// step each rank sends 8 doubles to each neighbour and waits for both of
// theirs, with no compute. The step time is AMPI matching, the converse
// queue with its park/wake and dispatch, and ULT switches. Nothing
// migrates.
#include "ampi/ampi.h"
#include "bench.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace ampi = mfc::ampi;

constexpr int kRanks = 48;
constexpr int kHalo = 8;  ///< doubles each way
constexpr int kSteps = 4000;
constexpr int kTagRightward = 0;
constexpr int kTagLeftward = 1;

/// Value `k` of the halo sent at step `s` by the rank whose seeded offset is
/// `base`; `dir` 0 = rightward, 1 = leftward. Integer-valued and below
/// 2^41, so every sum is exact.
double halo_value(double base, int s, int k, int dir) {
  return base + static_cast<double>(s % 4096) * 65536.0 + k * 2 + dir;
}

/// Closed form of the sum of one halo (k = 0..7, sum of 2k = 56).
double halo_sum(double base, int s, int dir) {
  return kHalo * (base + static_cast<double>(s % 4096) * 65536.0 + dir) + 56;
}

bool halo_ok(const double* buf, double base, int s, int dir) {
  double sum = 0;
  for (int k = 0; k < kHalo; ++k) sum += buf[k];
  return sum == halo_sum(base, s, dir);
}

class HaloFine final : public Workload {
 public:
  explicit HaloFine(const Config& cfg) {
    mfc::SplitMix64 rng(cfg.seed);
    for (double& b : base_) {
      b = static_cast<double>(rng.next_below(4096)) * 268435456.0;  // 2^28
    }
  }

  int flows() const override { return kRanks; }

  void run(Episode& ep) override {
    ampi::Options opt;
    opt.nranks = kRanks;
    opt.npes = kPes;
    ep.iter_us.reserve(kSteps);
    Counters before, after;
    std::uint64_t dispatches = 0;
    double t0 = 0, cpu0 = 0;

    const double t_boot = wall_s();
    ampi::run(opt, [&] {
      pin_pe_thread(ampi::my_pe());
      const int r = ampi::rank();
      Tracer* tr = ep.tracer(r);
      Checks& ck = ep.checks[static_cast<std::size_t>(r)];
      const int left = (r + kRanks - 1) % kRanks;
      const int right = (r + 1) % kRanks;
      const double mine = base_[r];
      const double from_left = base_[left];
      const double from_right = base_[right];
      // Separate receive buffers per neighbour, so a message landing in
      // the wrong one fails the closed-form check.
      double send_l[kHalo], send_r[kHalo], recv_l[kHalo], recv_r[kHalo];

      const std::uint64_t d0 = ampi_pe_dispatches();
      ampi::barrier();
      if (r == 0) {
        ep.setup_s = wall_s() - t_boot;
        before = Counters::read();
        cpu0 = process_cpu_s();
        t0 = wall_s();
      }
      double t_prev = t0;
      for (int s = 0; s < kSteps; ++s) {
        Span iter(r == 0 ? tr : nullptr, Op::kIter);
        for (int k = 0; k < kHalo; ++k) {
          send_r[k] = halo_value(mine, s, k, 0);
          send_l[k] = halo_value(mine, s, k, 1);
        }
        ampi::Request from_l, from_r;
        {
          Span sp(tr, Op::kAmpiIrecv);
          from_l = ampi::irecv(recv_l, kHalo, ampi::Dtype::kDouble, left,
                               kTagRightward);
        }
        {
          Span sp(tr, Op::kAmpiIrecv);
          from_r = ampi::irecv(recv_r, kHalo, ampi::Dtype::kDouble, right,
                               kTagLeftward);
        }
        {
          Span sp(tr, Op::kAmpiSend);
          ampi::send(send_r, kHalo, ampi::Dtype::kDouble, right,
                     kTagRightward);
        }
        {
          Span sp(tr, Op::kAmpiSend);
          ampi::send(send_l, kHalo, ampi::Dtype::kDouble, left, kTagLeftward);
        }
        {
          Span sp(tr, Op::kAmpiWait);
          ampi::wait(from_l);
        }
        {
          Span sp(tr, Op::kAmpiWait);
          ampi::wait(from_r);
        }
        ck.expect(halo_ok(recv_l, from_left, s, 0),
                  "halo_fine: halo from the left neighbour");
        ck.expect(halo_ok(recv_r, from_right, s, 1),
                  "halo_fine: halo from the right neighbour");
        if (r == 0) {
          const double t = wall_s();
          ep.iter_us.push_back((t - t_prev) * 1e6);
          t_prev = t;
        }
      }
      ampi::barrier();
      if (r == 0) {
        ep.loop_s = wall_s() - t0;
        ep.cpu_s = process_cpu_s() - cpu0;
        after = Counters::read();
      }
      const std::uint64_t d1 = ampi_pe_dispatches();
      if (r == 0) dispatches = d1 - d0;
    });

    record_machine_layers(ep, before, after, dispatches, kSteps);
    if (ep.traced) {
      ep.layer["ampi.send_ns_p50"] = pooled_p50_ns(ep.tracers, Op::kAmpiSend);
      ep.layer["ampi.wait_us_p50"] =
          pooled_p50_ns(ep.tracers, Op::kAmpiWait) / 1e3;
    }
  }

  int self_test() const override {
    double buf[kHalo];
    const double base = base_[1];
    for (int k = 0; k < kHalo; ++k) buf[k] = halo_value(base, 7, k, 0);
    int missed = 0;
    if (!halo_ok(buf, base, 7, 0)) ++missed;  // must pass on good data
    if (halo_ok(buf, base, 7, 1)) ++missed;   // wrong neighbour's buffer
    if (halo_ok(buf, base, 8, 0)) ++missed;   // stale step
    buf[3] += 1;
    if (halo_ok(buf, base, 7, 0)) ++missed;   // one value off by one
    return missed;
  }

 private:
  double base_[kRanks] = {};
};

}  // namespace

std::unique_ptr<Workload> make_halo_fine(const Config& cfg) {
  return std::make_unique<HaloFine>(cfg);
}

}  // namespace perfbench
