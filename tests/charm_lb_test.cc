// Tests for measurement-based chare-array load balancing (paper §3.2).
#include "charm/lb_manager.h"

#include <gtest/gtest.h>

#include <atomic>

#include "converse/machine.h"

namespace {

namespace cv = mfc::converse;
using mfc::charm::Array;
using mfc::charm::Element;
using mfc::charm::rebalance;
using mfc::charm::RebalanceResult;

// An element whose "work" message burns CPU proportional to its index
// weight — elements 0..3 heavy, the rest light.
struct Worker : Element {
  long done = 0;
  void on_message(int tag, std::vector<char>) override {
    (void)tag;
    const long reps = index() < 4 ? 800000 : 10000;
    volatile double sink = 0;
    for (long i = 0; i < reps; ++i) sink = sink + static_cast<double>(i);
    ++done;
  }
  void pup(mfc::pup::Er& p) override { p | done; }
};

TEST(CharmLb, GreedyRebalanceSpreadsHeavyElements) {
  static std::atomic<int> moved;
  static std::atomic<double> imb_before, imb_after;
  moved = -1;
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    Array<Worker> arr(9, 8);
    cv::barrier();
    // All heavy elements (0..3) start on their homes 0,1,0,1 — but make the
    // imbalance sharper by driving the whole array from PE 0 and letting
    // measured load decide.
    if (pe == 0) {
      for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 8; ++i) arr.send_value(i, 0, round);
      }
    }
    cv::wait_quiescence();  // all sends delivered and processed

    RebalanceResult r = rebalance(arr, mfc::lb::greedy_lb);
    if (pe == 0) {
      moved = r.migrations;
      imb_before = r.imbalance_before;
      imb_after = r.imbalance_after;
    }

    // The array must still function after the shuffle.
    if (pe == 0) {
      for (int i = 0; i < 8; ++i) arr.send_value(i, 0, 99);
    }
    cv::wait_quiescence();
    long local_done = 0;
    for (int idx : arr.local_indices()) local_done += arr.local(idx)->done;
    static std::atomic<long> total_done;
    if (pe == 0) total_done = 0;
    cv::barrier();
    total_done.fetch_add(local_done);
    cv::barrier();
    if (pe == 0) {
      EXPECT_EQ(total_done.load(), 8 * 4);
    }
  });
  EXPECT_GE(moved.load(), 0);
  // Sound bound: LPT greedy is within 4/3 of optimal, and optimal is no
  // worse than the measured current placement — so the new imbalance can
  // exceed the old only by that factor (it does when the measured
  // placement happens to be near-optimal already).
  EXPECT_LE(imb_after.load(), imb_before.load() * 4.0 / 3.0 + 1e-9);
}

TEST(CharmLb, NullStrategyMovesNothing) {
  static std::atomic<int> moved;
  moved = -1;
  cv::Machine::Config cfg;
  cfg.npes = 3;
  cv::Machine::run(cfg, [](int pe) {
    Array<Worker> arr(10, 9);
    cv::barrier();
    RebalanceResult r = rebalance(arr, mfc::lb::null_lb);
    if (pe == 0) moved = r.migrations;
    cv::barrier();
  });
  EXPECT_EQ(moved.load(), 0);
}

TEST(CharmLb, RotateMovesEveryElementAndStateSurvives) {
  static std::atomic<long> sum_after;
  sum_after = 0;
  cv::Machine::Config cfg;
  cfg.npes = 4;
  cv::Machine::run(cfg, [](int pe) {
    Array<Worker> arr(11, 8);
    cv::barrier();
    if (pe == 0) {
      for (int i = 0; i < 8; ++i) arr.send_value(i, 0, 1);
    }
    for (int i = 0; i < 6; ++i) cv::barrier();

    RebalanceResult r = rebalance(arr, mfc::lb::rotate_lb);
    EXPECT_EQ(r.migrations, 8);
    // Everybody moved one PE to the right: home PE p's elements now live on
    // p+1 — verify locality flipped and state (done counters) survived.
    for (int idx : arr.local_indices()) {
      EXPECT_EQ((arr.home_pe(idx) + 1) % 4, pe);
      sum_after.fetch_add(arr.local(idx)->done);
    }
    cv::barrier();
  });
  EXPECT_EQ(sum_after.load(), 8);
}

TEST(CharmLb, RepeatedEpisodes) {
  cv::Machine::Config cfg;
  cfg.npes = 2;
  cv::Machine::run(cfg, [](int pe) {
    Array<Worker> arr(12, 6);
    cv::barrier();
    for (int episode = 0; episode < 4; ++episode) {
      if (pe == 0) {
        for (int i = 0; i < 6; ++i) arr.send_value(i, 0, episode);
      }
      // Sends to elements the last episode moved may still be chasing
      // them through an old PE or the home; barriers do not wait for that.
      cv::wait_quiescence();
      rebalance(arr, mfc::lb::greedy_lb);
    }
    // All elements alive and all messages processed.
    static std::atomic<long> total;
    if (pe == 0) total = 0;
    cv::barrier();
    for (int idx : arr.local_indices()) total.fetch_add(arr.local(idx)->done);
    cv::barrier();
    if (pe == 0) {
      EXPECT_EQ(total.load(), 6 * 4);
    }
  });
}

}  // namespace
