// Event-driven migratable object array tests (paper §2.4, §3.2).
#include "charm/array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>

#include "converse/machine.h"
#include "trace/metrics.h"
#include "util/rng.h"

namespace {

namespace cv = mfc::converse;
using mfc::charm::Array;
using mfc::charm::Element;

// A counter object: tag 0 adds the payload int; tag 1 contributes its total
// to reduction (payload = reduction id); tag 2 migrates itself to payload pe;
// tag 3 migrates itself to payload {pe, other} and then adds 1 to `other`.
struct Counter : Element {
  long total = 0;
  int hops = 0;

  void on_message(int tag, std::vector<char> payload) override {
    switch (tag) {
      case 0:
        total += [&] {
          mfc::pup::MemUnpacker u(payload.data(), payload.size());
          int v = 0;
          mfc::pup::pup(u, v);
          return v;
        }();
        break;
      case 1: {
        mfc::pup::MemUnpacker u(payload.data(), payload.size());
        int red_id = 0;
        mfc::pup::pup(u, red_id);
        mfc::charm::find_array(array_id())
            ->contribute(red_id, static_cast<double>(total));
        break;
      }
      case 2: {
        mfc::pup::MemUnpacker u(payload.data(), payload.size());
        int dest = 0;
        mfc::pup::pup(u, dest);
        ++hops;
        mfc::charm::find_array(array_id())->migrate(index(), dest);
        break;
      }
      case 3: {
        mfc::pup::MemUnpacker u(payload.data(), payload.size());
        int dest = 0, other = 0;
        u | dest | other;
        ++hops;
        auto* arr = mfc::charm::find_array(array_id());
        arr->migrate(index(), dest);
        int one = 1;
        arr->send_value(other, 0, one);
        break;
      }
      default:
        FAIL() << "unknown tag";
    }
  }

  void pup(mfc::pup::Er& p) override { p | total | hops; }
};

TEST(Charm, ElementsBornOnHomePes) {
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(1, 16);
    cv::barrier();
    EXPECT_EQ(arr.local_count(), 4u);
    for (int index : arr.local_indices()) {
      EXPECT_EQ(index % 4, pe);
      EXPECT_EQ(arr.home_pe(index), pe);
    }
    cv::barrier();
  });
}

TEST(Charm, MessagesReachElementsAnywhere) {
  static std::atomic<long> grand_total{0};
  grand_total = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(2, 8);
    cv::barrier();
    if (pe == 0) {
      for (int i = 0; i < 8; ++i) {
        int v = i + 1;
        arr.send_value(i, 0, v);
      }
    }
    cv::barrier();
    cv::barrier();  // allow deliveries to drain
    for (int index : arr.local_indices()) {
      grand_total += arr.local(index)->total;
    }
    cv::barrier();
  });
  EXPECT_EQ(grand_total.load(), 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(Charm, ReductionSumsAllElements) {
  static std::atomic<double> result{-1};
  result = -1;
  cv::Machine::Config cfg;
  cfg.npes = 3;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(3, 12);
    if (pe == 0) arr.on_reduction([](double r) { result.store(r); });
    cv::barrier();
    if (pe == 0) {
      for (int i = 0; i < 12; ++i) {
        int v = 10;
        arr.send_value(i, 0, v);
      }
      int red_id = 7;
      arr.broadcast(1, mfc::pup::to_bytes(red_id));
    }
    cv::barrier();
    cv::barrier();
    cv::barrier();
  });
  EXPECT_EQ(result.load(), 120.0);
}

TEST(Charm, MigrationPreservesStateAndDelivery) {
  static std::atomic<long> final_total{0};
  final_total = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(4, 4);
    cv::barrier();
    // Round 1: accumulate, then migrate element 0 (self-migration) to PE 3.
    if (pe == 0) {
      int v = 5;
      arr.send_value(0, 0, v);
      int dest = 3;
      arr.send_value(0, 2, dest);
      // Keep sending while the element is in flight: the home must buffer.
      for (int k = 0; k < 10; ++k) {
        int one = 1;
        arr.send_value(0, 0, one);
      }
    }
    // Quiescence, not barriers: a barrier does not wait for messages still
    // chasing the element through its old PE or its home.
    cv::wait_quiescence();
    // Element 0 now lives on PE 3 with total = 5 + 10.
    if (pe == 3) {
      Counter* c = arr.local(0);
      if (c == nullptr) {
        ADD_FAILURE() << "element 0 did not arrive on PE 3";
      } else {
        EXPECT_EQ(c->hops, 1);
        final_total.store(c->total);
      }
    }
    if (pe == 0) {
      EXPECT_EQ(arr.local(0), nullptr);
    }
    cv::barrier();
  });
  EXPECT_EQ(final_total.load(), 15);
}

TEST(Charm, ChainedMigrationsFollowTheElement) {
  static std::atomic<int> hops_seen{0};
  static std::atomic<long> total_seen{0};
  hops_seen = 0;
  total_seen = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(5, 1);  // single element, home PE 0
    cv::barrier();
    if (pe == 0) {
      // Bounce the element around the machine, mixing adds between hops.
      for (int hop = 1; hop <= 6; ++hop) {
        int dest = hop % 4;
        arr.send_value(0, 2, dest);
        int v = hop;
        arr.send_value(0, 0, v);
      }
    }
    cv::wait_quiescence();  // every chasing message has landed
    Counter* c = arr.local(0);
    if (c != nullptr) {
      hops_seen.store(c->hops);
      total_seen.store(c->total);
    }
    cv::barrier();
  });
  EXPECT_EQ(hops_seen.load(), 6);
  EXPECT_EQ(total_seen.load(), 1 + 2 + 3 + 4 + 5 + 6);
}

TEST(Charm, PerElementLoadIsTracked) {
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(6, 2);
    cv::barrier();
    if (pe == 0) {
      for (int k = 0; k < 100; ++k) {
        int v = 1;
        arr.send_value(0, 0, v);
      }
    }
    cv::barrier();
    cv::barrier();
    if (pe == 0) {
      EXPECT_GE(arr.local(0)->accumulated_load(), 0.0);
      EXPECT_EQ(arr.local(0)->total, 100);
    }
    cv::barrier();
  });
}

TEST(Charm, DeferredSelfMigrationSurvivesANestedDelivery) {
  // Element 0 asks to move, then messages element 2 on the same PE. That
  // send is a self-send from handler context and may be delivered inline,
  // nested in element 0's method: the move request must stay element 0's.
  static std::atomic<int> moved_hops{-1};
  static std::atomic<long> poked_total{-1};
  static std::atomic<bool> poked_home{false};
  static std::atomic<bool> done{false};
  moved_hops = -1;
  poked_total = -1;
  poked_home = false;
  done = false;
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(10, 4);
    cv::barrier();
    if (pe == 0) {
      // Nothing else is queued on PE 0 (PE 1 sends nothing until `done`),
      // so the poke finds an empty queue and is dispatched inline.
      arr.send(0, 3, mfc::pup::to_bytes(std::pair{1, 2}));
      while (arr.local(2) != nullptr && arr.local(2)->total == 0) {
        cv::pe_scheduler().yield();
      }
      done = true;
    } else {
      while (!done) cv::pe_scheduler().yield();
    }
    cv::wait_quiescence();
    if (pe == 1) {
      if (Counter* c = arr.local(0)) moved_hops = c->hops;
    } else if (Counter* c = arr.local(2)) {
      poked_home = true;
      poked_total = c->total;
    }
    cv::barrier();
  });
  EXPECT_EQ(moved_hops.load(), 1) << "element 0 did not move to PE 1";
  EXPECT_TRUE(poked_home.load()) << "element 2 was moved in its place";
  EXPECT_EQ(poked_total.load(), 1);
}

std::uint64_t elem_forwards() {
  return mfc::metrics::total(mfc::metrics::Counter::kElemForwards);
}
std::uint64_t elem_locates() {
  return mfc::metrics::total(mfc::metrics::Counter::kElemLocates);
}

TEST(Charm, HintsSendStraightToAMigratedElement) {
  constexpr int kSends = 25;
  static std::atomic<long> total{0};
  static std::atomic<std::uint64_t> warm_forwards{0}, warm_locates{0};
  static std::atomic<std::uint64_t> later_forwards{0};
  total = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(7, 8);
    cv::barrier();
    if (pe == 1) arr.migrate(1, 3);  // element 1 leaves its home, PE 1
    cv::wait_quiescence();
    // Warm-up: PE 1 knows where it sent the element and PE 3 holds it; PEs
    // 0 and 2 have no hint, go through the home and learn the location.
    int one = 1;
    arr.send_value(1, 0, one);
    cv::wait_quiescence();
    if (pe == 0) {
      warm_forwards = elem_forwards();
      warm_locates = elem_locates();
    }
    cv::barrier();
    for (int k = 0; k < kSends; ++k) arr.send_value(1, 0, one);
    cv::wait_quiescence();
    if (pe == 0) later_forwards = elem_forwards() - warm_forwards;
    if (Counter* c = arr.local(1)) total = c->total;
    cv::barrier();
  });
  EXPECT_EQ(warm_forwards.load(), 2u);
  EXPECT_EQ(warm_locates.load(), 2u);
  EXPECT_EQ(later_forwards.load(), 0u) << "a send took a detour after warm-up";
  EXPECT_EQ(total.load(), 4 + 4 * kSends);
}

// Records every add it receives by id, so a test can prove exactly-once
// delivery. Tag 0 adds {id, value}; tag 2 migrates to the payload PE.
struct Ledger : Element {
  long total = 0;
  std::vector<std::int32_t> ids;

  void on_message(int tag, std::vector<char> payload) override {
    mfc::pup::MemUnpacker u(payload.data(), payload.size());
    std::int32_t a = 0, b = 0;
    u | a | b;
    if (tag == 0) {
      ids.push_back(a);
      total += b;
    } else {
      mfc::charm::find_array(array_id())->migrate(index(), a);
    }
  }

  void pup(mfc::pup::Er& p) override { p | total | ids; }
};

class ChareDelay : public ::testing::TestWithParam<int> {};

TEST_P(ChareDelay, AddsArriveExactlyOnceThroughDelayedMigrations) {
  // Every PE streams seeded adds and move orders while chaos delays and
  // reorders deliveries, so hints go stale mid-flight and messages chase
  // elements through departure hints and the home.
  constexpr int kElems = 12, kPes = 4, kSteps = 150;
  static std::atomic<long> expected{0}, reduced{0};
  static std::mutex mu;
  static std::vector<std::int32_t> seen;
  expected = 0;
  reduced = 0;
  seen.clear();
  const auto seed = static_cast<std::uint64_t>(GetParam());
  cv::Machine::Config cfg;
  cfg.npes = kPes;
  cfg.chaos.enabled = true;
  cfg.chaos.seed = seed;
  cfg.chaos.delivery_delay = 0.5;
  cfg.chaos.max_delay_ticks = 12;
  cv::Machine::run(cfg, [seed](int pe) {
    Array<Ledger> arr(8, kElems);
    cv::barrier();
    mfc::SplitMix64 rng(seed * 1000 + static_cast<std::uint64_t>(pe));
    for (int step = 0; step < kSteps; ++step) {
      const auto elem = static_cast<int>(rng.next_below(kElems));
      const std::int32_t id = pe * kSteps + step;
      const auto v = static_cast<std::int32_t>(rng.next_below(100));
      expected.fetch_add(v);
      arr.send(elem, 0, mfc::pup::to_bytes(std::pair{id, v}));
      if (rng.next_below(4) == 0) {
        const auto dest = static_cast<std::int32_t>(rng.next_below(kPes));
        arr.send(elem, 2, mfc::pup::to_bytes(std::pair{dest, 0}));
      }
      if (step % 8 == 7) cv::pe_scheduler().yield();  // let deliveries run
    }
    cv::wait_quiescence();
    std::lock_guard<std::mutex> lock(mu);
    for (int index : arr.local_indices()) {
      const Ledger* e = arr.local(index);
      reduced += e->total;
      seen.insert(seen.end(), e->ids.begin(), e->ids.end());
    }
  });
  // The storm must have moved elements under traffic and misrouted some.
  EXPECT_GT(mfc::metrics::total(mfc::metrics::Counter::kElemMigrations), 0u);
  EXPECT_GT(elem_forwards(), 0u);
  EXPECT_GT(elem_locates(), 0u);
  EXPECT_EQ(reduced.load(), expected.load());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kPes * kSteps));
  for (int id = 0; id < kPes * kSteps; ++id) {
    ASSERT_EQ(seen[static_cast<std::size_t>(id)], id)
        << "add " << id << " lost or delivered twice";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChareDelay, ::testing::Range(1, 5));

TEST(Charm, SendsLandAfterRollbackRestore) {
  constexpr int kElems = 8;
  static std::atomic<long> total{0};
  static std::atomic<int> residents{0};
  total = 0;
  residents = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [&](int pe) {
    Array<Counter> arr(9, kElems);
    auto send_all = [&](int v) {
      for (int i = 0; i < kElems; ++i) arr.send_value(i, 0, v);
    };
    cv::barrier();
    for (int index : arr.local_indices()) {
      if (index < 4) arr.migrate(index, (pe + 1) % 4);
    }
    cv::wait_quiescence();
    send_all(1);  // warms every PE's hints for the checkpointed placement
    cv::wait_quiescence();
    const std::vector<char> blob = arr.checkpoint_local();
    cv::barrier();
    // Post-checkpoint history the rollback discards: every element moves
    // again and every PE learns the new places.
    for (int index : arr.local_indices()) arr.migrate(index, (pe + 2) % 4);
    cv::wait_quiescence();
    send_all(100);
    cv::wait_quiescence();
    arr.restore_local(blob);
    cv::barrier();
    send_all(1000);
    cv::wait_quiescence();
    for (int index : arr.local_indices()) total += arr.local(index)->total;
    residents += static_cast<int>(arr.local_count());
    cv::barrier();
  });
  EXPECT_EQ(residents.load(), kElems);
  EXPECT_EQ(total.load(), kElems * 4 * (1 + 1000));
}

}  // namespace
