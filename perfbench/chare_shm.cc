// chare_shm: a chare array over the shm wire. 48 elements of 512 B on 3
// PEs, with every cross-PE message on the shared-memory ring (loopback
// mode, one process). Each round every element sends a value to both ring
// neighbours and contributes their sum to a reduction; every 50th round
// every element first migrates to the next PE. This is the workload that
// runs the wire codec, the shm ring, charm home routing and element
// migration.
#include <atomic>
#include <span>

#include "bench.h"
#include "charm/array.h"
#include "converse/machine.h"
#include "pup/pup.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace cv = mfc::converse;
namespace charm = mfc::charm;

constexpr int kElems = 48;
constexpr int kRounds = 400;
constexpr int kMigrateEvery = 50;
constexpr int kArrayId = 11;
constexpr int kWords = 64;  ///< 512 B of element state

enum Tag { kStart = 0, kNbr = 1, kMove = 2 };

struct NbrMsg {
  std::int32_t round = 0;
  double value = 0;
  void pup(mfc::pup::Er& p) { p | round | value; }
};

bool is_migration_round(int round) {
  return round % kMigrateEvery == kMigrateEvery - 1;
}

/// Word `k` of element `i`'s state after `rounds` completed rounds.
std::uint64_t state_word(int i, int k, std::uint32_t rounds) {
  return (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ULL +
         static_cast<std::uint64_t>(k) * 0xbf58476d1ce4e5b9ULL + rounds;
}

bool state_ok(const std::uint64_t* words, int i, std::uint32_t rounds) {
  for (int k = 0; k < kWords; ++k) {
    if (words[k] != state_word(i, k, rounds)) return false;
  }
  return true;
}

/// The episode an element's handlers report into (one machine runs at a
/// time; handlers reach it through this pointer).
struct Shared {
  Episode* ep = nullptr;
  double base = 0;  ///< seeded offset of every element's value
  double reduced = 0;
  bool reduction_done = false;
  mfc::ult::Thread* driver = nullptr;  ///< parked in the wait, or null
};
Shared* g_shared = nullptr;

/// The value element `i` sends both neighbours in round `r` (an integer,
/// so the reduction is exact).
double elem_value(int i, int r) {
  return g_shared->base + i * 7 + (r % 1000) * 3 + 1;
}

double expected_reduction(double base, int r) {
  // Every element's value reaches both neighbours once.
  double sum = 0;
  for (int i = 0; i < kElems; ++i) sum += base + i * 7 + (r % 1000) * 3 + 1;
  return 2 * sum;
}

bool reduction_ok(double got, double base, int r) {
  return got == expected_reduction(base, r);
}

/// A start or neighbour message must belong to the round in progress.
bool round_ok(int seen, std::uint32_t rounds_done) {
  return seen >= 0 && static_cast<std::uint32_t>(seen) == rounds_done;
}

bool migrations_ok(double migrations) {
  return migrations == kElems * (kRounds / kMigrateEvery);
}

class Cell final : public charm::Element {
 public:
  Cell() = default;
  explicit Cell(int i) {
    for (int k = 0; k < kWords; ++k) words_[k] = state_word(i, k, 0);
  }

  void on_message(int tag, std::vector<char> payload) override {
    Episode& ep = *g_shared->ep;
    const int me = index();
    Checks& ck = ep.checks[static_cast<std::size_t>(me) + 1];
    Tracer* tr = ep.tracer(me + 1);
    charm::ArrayBase* arr = charm::find_array(kArrayId);
    switch (tag) {
      case kStart: {
        int round = 0;
        mfc::pup::from_bytes(payload, round);
        ck.expect(round_ok(round, rounds_),
                  "chare_shm: start of a round out of order");
        started_ = 1;
        const NbrMsg msg{round, elem_value(me, round)};
        for (const int n : {(me + kElems - 1) % kElems, (me + 1) % kElems}) {
          Span sp(tr, Op::kCharmSend);
          arr->send_value(n, kNbr, msg);
        }
        break;
      }
      case kNbr: {
        NbrMsg msg;
        mfc::pup::from_bytes(payload, msg);
        ck.expect(round_ok(msg.round, rounds_),
                  "chare_shm: neighbour value from another round");
        sum_ += msg.value;
        ++got_;
        break;
      }
      case kMove: {
        int shift = 0;
        mfc::pup::from_bytes(payload, shift);
        arr->migrate(me, (cv::my_pe() + shift) % cv::num_pes());
        return;
      }
      default:
        ck.expect(false, "chare_shm: unknown message tag");
        return;
    }
    if (started_ == 0 || got_ < 2) return;
    ck.expect(state_ok(words_, me, rounds_),
              "chare_shm: element state changed");
    arr->contribute(static_cast<int>(rounds_), sum_);
    ++rounds_;
    for (int k = 0; k < kWords; ++k) words_[k] = state_word(me, k, rounds_);
    started_ = 0;
    got_ = 0;
    sum_ = 0;
  }

  void pup(mfc::pup::Er& p) override {
    p.bytes(words_, sizeof words_);
    p | rounds_ | started_ | got_ | sum_;
  }

 private:
  std::uint64_t words_[kWords] = {};
  std::uint32_t rounds_ = 0;  ///< rounds completed this episode
  std::int32_t started_ = 0;  ///< this round's start message seen
  std::int32_t got_ = 0;      ///< neighbour values received this round
  double sum_ = 0;
};

class ChareShm final : public Workload {
 public:
  explicit ChareShm(const Config& cfg) {
    mfc::SplitMix64 rng(cfg.seed);
    base_ = static_cast<double>(rng.next_below(1u << 20)) * 1024.0;
  }

  /// Flow 0 is the round driver; element i is flow i + 1.
  int flows() const override { return kElems + 1; }

  void run(Episode& ep) override {
    Shared shared;
    shared.ep = &ep;
    shared.base = base_;
    g_shared = &shared;

    cv::Machine::Config mc;
    mc.npes = kPes;
    mc.nprocs = 1;
    mc.transport = cv::Machine::Config::Transport::kShm;
    mc.iso_slots_per_pe = 0;  // chares migrate by pup, not isomalloc

    ep.iter_us.reserve(kRounds);
    std::vector<double> plain_us, migrate_us;
    Counters before, after;
    std::atomic<std::uint64_t> dispatches{0};
    Tracer* tr = ep.tracer(0);
    Checks& ck = ep.checks[0];

    const double t_boot = wall_s();
    cv::Machine::run(mc, [&](int pe) {
      pin_pe_thread(pe);
      charm::Array<Cell> arr(kArrayId, kElems, [](int i) {
        return std::make_unique<Cell>(i);
      });
      if (pe == 0) {
        arr.on_reduction([](double result) {
          g_shared->reduced = result;
          g_shared->reduction_done = true;
          if (g_shared->driver != nullptr) cv::ready_thread(g_shared->driver);
        });
      }
      const std::uint64_t d0 = mfc::ult::dispatch_count();
      cv::barrier();
      if (pe == 0) {
        ep.setup_s = wall_s() - t_boot;
        before = Counters::read();
        const double cpu0 = process_cpu_s();
        const double t0 = wall_s();
        double t_prev = t0;
        for (int r = 0; r < kRounds; ++r) {
          Span iter(tr, Op::kIter);
          shared.reduction_done = false;
          {
            Span sp(tr, Op::kCharmSend);
            if (is_migration_round(r)) {
              for (int i = 0; i < kElems; ++i) arr.send_value(i, kMove, 1);
            }
            for (int i = 0; i < kElems; ++i) arr.send_value(i, kStart, r);
          }
          {
            Span sp(tr, Op::kCharmWait);
            while (!shared.reduction_done) {
              shared.driver = cv::pe_scheduler().running();
              cv::pe_scheduler().suspend();
              shared.driver = nullptr;
            }
          }
          ck.expect(reduction_ok(shared.reduced, base_, r),
                    "chare_shm: reduction result");
          const double t = wall_s();
          const double us = (t - t_prev) * 1e6;
          t_prev = t;
          ep.iter_us.push_back(us);
          (is_migration_round(r) ? migrate_us : plain_us).push_back(us);
        }
        ep.loop_s = wall_s() - t0;
        ep.cpu_s = process_cpu_s() - cpu0;
        after = Counters::read();
      }
      cv::barrier();
      dispatches += mfc::ult::dispatch_count() - d0;
    });
    g_shared = nullptr;

    record_machine_layers(ep, before, after, dispatches.load(), kRounds);
    ck.expect(migrations_ok(ep.layer["charm.elem_migrations"]),
              "chare_shm: every element migrated in every migration round");
    if (ep.traced) {
      const auto elements = std::span<const Tracer>(ep.tracers).subspan(1);
      ep.layer["charm.send_ns_p50"] = pooled_p50_ns(elements, Op::kCharmSend);
      ep.layer["charm.migrate_round_us_p50"] = median(migrate_us);
      ep.layer["charm.plain_round_us_p50"] = median(plain_us);
    }
  }

  int self_test() const override {
    int missed = 0;
    if (!reduction_ok(expected_reduction(base_, 3), base_, 3)) ++missed;
    if (reduction_ok(expected_reduction(base_, 3) + 1, base_, 3)) ++missed;
    if (reduction_ok(expected_reduction(base_, 2), base_, 3)) ++missed;
    std::uint64_t words[kWords];
    for (int k = 0; k < kWords; ++k) words[k] = state_word(5, k, 9);
    if (!state_ok(words, 5, 9)) ++missed;
    if (state_ok(words, 5, 10)) ++missed;  // a lost round
    if (state_ok(words, 6, 9)) ++missed;   // another element's state
    words[kWords / 2] ^= 4;
    if (state_ok(words, 5, 9)) ++missed;   // one flipped bit
    if (!round_ok(7, 7)) ++missed;
    if (round_ok(8, 7) || round_ok(-1, 7)) ++missed;
    if (!migrations_ok(kElems * (kRounds / kMigrateEvery))) ++missed;
    if (migrations_ok(kElems * (kRounds / kMigrateEvery) - 1)) ++missed;
    return missed;
  }

 private:
  double base_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_chare_shm(const Config& cfg) {
  return std::make_unique<ChareShm>(cfg);
}

}  // namespace perfbench
