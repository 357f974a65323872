// migrate_churn: copying migration. 12 AMPI ranks each hold 256 KiB of
// state in their isomalloc heap; every step every rank calls migrate_to()
// towards another PE (a seeded per-step shift), then checks that its bytes
// and its heap address survived the trip.
#include <algorithm>
#include <cstdlib>

#include "ampi/ampi.h"
#include "bench.h"
#include "iso/heap.h"
#include "trace/metrics.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace ampi = mfc::ampi;

constexpr int kRanks = 12;
constexpr std::size_t kStateBytes = 256 * 1024;
constexpr std::size_t kWords = kStateBytes / sizeof(std::uint64_t);
constexpr int kSteps = 60;

/// Word `i` (i >= 1) of rank `r`'s state; word 0 counts completed steps.
std::uint64_t pattern(int r, std::size_t i) {
  return (static_cast<std::uint64_t>(r) + 1) * 0x9e3779b97f4a7c15ULL ^
         (static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ULL);
}

bool state_ok(const std::uint64_t* state, int r, int steps_done) {
  if (state[0] != static_cast<std::uint64_t>(steps_done)) return false;
  for (std::size_t i = 1; i < kWords; ++i) {
    if (state[i] != pattern(r, i)) return false;
  }
  return true;
}

bool landed_ok(int pe, int dest) { return pe == dest; }

bool address_ok(const void* p, std::uintptr_t recorded, bool heap_owns) {
  return reinterpret_cast<std::uintptr_t>(p) == recorded && heap_owns;
}

constexpr double kPacksPerEpisode = kRanks * kSteps;

bool books_ok(double packs, double unpacks) {
  return packs == kPacksPerEpisode && unpacks == kPacksPerEpisode;
}

class MigrateChurn final : public Workload {
 public:
  explicit MigrateChurn(const Config& cfg) {
    // The destination permutation: each step every PE's residents move by
    // the same non-zero shift, so every rank moves every step.
    mfc::SplitMix64 rng(cfg.seed);
    for (int& s : shift_) {
      s = 1 + static_cast<int>(rng.next_below(kPes - 1));
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
    std::uintptr_t addr[kRanks] = {};
    std::size_t slot_bytes[kRanks] = {};

    const double t_boot = wall_s();
    ampi::run(opt, [&] {
      pin_pe_thread(ampi::my_pe());
      const int r = ampi::rank();
      Tracer* tr = ep.tracer(r);
      Checks& ck = ep.checks[static_cast<std::size_t>(r)];

      mfc::iso::ThreadHeap* heap = mfc::iso::current_heap();
      if (heap == nullptr) std::abort();  // ranks always run on a heap
      std::uint64_t* state;
      {
        Span sp(tr, Op::kIsoMalloc);
        state = static_cast<std::uint64_t*>(heap->malloc(kStateBytes));
      }
      state[0] = 0;
      for (std::size_t i = 1; i < kWords; ++i) state[i] = pattern(r, i);
      addr[r] = reinterpret_cast<std::uintptr_t>(state);
      slot_bytes[r] = heap->footprint();

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
        const int dest = (ampi::my_pe() + shift_[s]) % kPes;
        {
          Span sp(tr, Op::kAmpiMigrateTo);
          ampi::migrate_to(dest);
        }
        ck.expect(landed_ok(ampi::my_pe(), dest),
                  "migrate_churn: landed on a wrong PE");
        ck.expect(address_ok(state, addr[r],
                             mfc::iso::current_heap()->owns(state)),
                  "migrate_churn: heap address changed");
        ck.expect(state_ok(state, r, s), "migrate_churn: state bytes changed");
        state[0] = static_cast<std::uint64_t>(s) + 1;
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
      mfc::iso::current_heap()->free(state);
    });

    record_machine_layers(ep, before, after, dispatches, kSteps);
    ep.checks[0].expect(books_ok(ep.layer["migrate.packs"],
                                 ep.layer["migrate.unpacks"]),
                        "migrate_churn: packs = unpacks = ranks x steps");
    if (ep.traced) {
      double bytes = 0;
      for (std::size_t b : slot_bytes) bytes += static_cast<double>(b);
      std::sort(std::begin(slot_bytes), std::end(slot_bytes));
      const double migrate_us =
          pooled_p50_ns(ep.tracers, Op::kAmpiMigrateTo) / 1e3;
      ep.layer["ampi.migrate_to_us_p50"] = migrate_us;
      ep.layer["migrate.bytes_per_step"] = bytes;
      ep.layer["migrate.MBps"] = migrate_us > 0 ? bytes / migrate_us : 0;
      ep.layer["iso.heap_malloc_us"] =
          pooled_p50_ns(ep.tracers, Op::kIsoMalloc) / 1e3;
      ep.layer["iso.heap_slot_bytes"] =
          static_cast<double>(slot_bytes[kRanks / 2]);
    }
  }

  int self_test() const override {
    std::vector<std::uint64_t> state(kWords);
    state[0] = 5;
    for (std::size_t i = 1; i < kWords; ++i) state[i] = pattern(3, i);
    int missed = 0;
    if (!state_ok(state.data(), 3, 5)) ++missed;  // must pass on good data
    if (state_ok(state.data(), 4, 5)) ++missed;   // another rank's bytes
    if (state_ok(state.data(), 3, 4)) ++missed;   // a lost step
    state[kWords - 1] ^= 1;
    if (state_ok(state.data(), 3, 5)) ++missed;   // one flipped bit
    if (!landed_ok(2, 2) || landed_ok(1, 2)) ++missed;
    const auto at = reinterpret_cast<std::uintptr_t>(state.data());
    if (!address_ok(state.data(), at, true)) ++missed;
    if (address_ok(state.data(), at + 8, true)) ++missed;  // moved
    if (address_ok(state.data(), at, false)) ++missed;     // left the heap
    constexpr double kBooks = kPacksPerEpisode;
    if (!books_ok(kBooks, kBooks)) ++missed;
    if (books_ok(kBooks - 1, kBooks)) ++missed;
    if (books_ok(kBooks, kBooks + 1)) ++missed;
    return missed;
  }

 private:
  int shift_[kSteps] = {};
};

}  // namespace

std::unique_ptr<Workload> make_migrate_churn(const Config& cfg) {
  return std::make_unique<MigrateChurn>(cfg);
}

}  // namespace perfbench
