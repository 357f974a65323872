// AMPI with the malloc interposition linked (mfc_isohook): every plain
// allocation a rank makes lands on its isomalloc heap, which migrates with
// it and is released when it ends. Runtime-owned buffers (message
// envelopes, unexpected and held queues, request blocks) must never come
// from there: they outlive the rank's slots or stay behind when it moves.
#include <gtest/gtest.h>

#include <vector>

#include "ampi/ampi.h"
#include "iso/heap.h"
#include "iso/region.h"

namespace {

namespace ampi = mfc::ampi;

ampi::Options opts(int nranks, int npes) {
  ampi::Options o;
  o.nranks = nranks;
  o.npes = npes;
  o.iso_slots_per_pe = 512;
  return o;
}

std::size_t heap_allocations() {
  return mfc::iso::current_heap()->allocation_count();
}

TEST(AmpiIsohook, RankHeapHoldsOnlyRankData) {
  ampi::run(opts(4, 2), [] {
    ASSERT_NE(mfc::iso::current_heap(), nullptr) << "ranks run on iso heaps";
    auto* mine = new std::vector<double>(64, 1.0);
    EXPECT_TRUE(mfc::iso::Region::instance().contains(mine->data()));
    delete mine;
  });
}

TEST(AmpiIsohook, SteadyStateMessagingLeavesTheRankHeapAlone) {
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    const int peer = r ^ 1;  // partner on the other PE
    double out[8], in[8];
    auto exchange = [&](int i) {
      for (double& v : out) v = r * 1000.0 + i;
      if (i % 2 == 0) {
        ampi::sendrecv(out, 8, ampi::Dtype::kDouble, peer, 1, in, 8, peer, 1);
      } else {
        ampi::Request req = ampi::irecv(in, 8, ampi::Dtype::kDouble, peer, 2);
        ampi::send(out, 8, ampi::Dtype::kDouble, peer, 2);
        ampi::wait(req);
      }
      return in[7] == peer * 1000.0 + i;
    };
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(exchange(i));  // warm the pools
    const std::size_t before = heap_allocations();
    bool ok = true;
    for (int i = 10; i < 1010; ++i) ok = exchange(i) && ok;
    const std::size_t after = heap_allocations();
    EXPECT_TRUE(ok);
    EXPECT_EQ(after, before) << "a send or receive allocated on the rank heap";
  });
}

TEST(AmpiIsohook, CollectivesAndMigrationSurviveTeardown) {
  ampi::run(opts(6, 3), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    auto* state = new std::vector<long>(100, r);

    long sum = ampi::allreduce_one<long>(r, ampi::Op::kSum);
    EXPECT_EQ(sum, n * (n - 1) / 2);
    int word = r == 2 ? 77 : 0;
    ampi::bcast(&word, 1, ampi::Dtype::kInt, 2);
    EXPECT_EQ(word, 77);
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    ampi::allgather(&r, 1, ampi::Dtype::kInt, all.data());
    for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);

    // Leave an unexpected message queued across the move.
    const int next = (r + 1) % n;
    const int prev = (r + n - 1) % n;
    ampi::send(&r, 1, ampi::Dtype::kInt, next, 9);
    ampi::barrier();
    const int from_pe = ampi::my_pe();
    ampi::migrate_to((from_pe + 1) % 3);
    EXPECT_EQ(ampi::my_pe(), (from_pe + 1) % 3);
    int got = -1;
    ampi::recv(&got, 1, ampi::Dtype::kInt, prev, 9);
    EXPECT_EQ(got, prev);
    for (long v : *state) ASSERT_EQ(v, r);
    delete state;
    ampi::barrier();
  });
}

}  // namespace
