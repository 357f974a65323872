// AMPI tests: MPI semantics over migratable user-level threads.
#include "ampi/ampi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "iso/heap.h"

namespace {

namespace ampi = mfc::ampi;

ampi::Options opts(int nranks, int npes) {
  ampi::Options o;
  o.nranks = nranks;
  o.npes = npes;
  return o;
}

TEST(Ampi, RankAndSize) {
  static std::atomic<int> sum{0};
  sum = 0;
  ampi::run(opts(8, 2), [] {
    EXPECT_EQ(ampi::size(), 8);
    EXPECT_GE(ampi::rank(), 0);
    EXPECT_LT(ampi::rank(), 8);
    sum.fetch_add(ampi::rank());
  });
  EXPECT_EQ(sum.load(), 28);  // each rank counted exactly once
}

TEST(Ampi, BlockingSendRecvRing) {
  static std::atomic<int> checked{0};
  checked = 0;
  ampi::run(opts(6, 3), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    int token = 100 + r;
    ampi::send(&token, 1, (r + 1) % n, /*tag=*/5);
    int got = -1;
    ampi::Status st;
    ampi::recv(&got, 1, (r + n - 1) % n, 5, &st);
    EXPECT_EQ(got, 100 + (r + n - 1) % n);
    EXPECT_EQ(st.source, (r + n - 1) % n);
    EXPECT_EQ(st.tag, 5);
    EXPECT_EQ(st.bytes, sizeof(int));
    checked.fetch_add(1);
  });
  EXPECT_EQ(checked.load(), 6);
}

TEST(Ampi, MessageOrderingBetweenPairs) {
  // MPI guarantees non-overtaking between a sender/receiver pair.
  ampi::run(opts(2, 2), [] {
    if (ampi::rank() == 0) {
      for (int i = 0; i < 50; ++i) ampi::send(&i, 1, 1, 9);
    } else {
      for (int i = 0; i < 50; ++i) {
        int v = -1;
        ampi::recv(&v, 1, 0, 9);
        ASSERT_EQ(v, i);
      }
    }
  });
}

TEST(Ampi, WildcardSourceAndTag) {
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    if (r == 0) {
      long seen_sum = 0;
      for (int i = 1; i < 4; ++i) {
        long v = 0;
        ampi::Status st;
        ampi::recv(&v, 1, ampi::kAnySource, ampi::kAnyTag, &st);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        seen_sum += v;
      }
      EXPECT_EQ(seen_sum, (10 + 1) + (20 + 2) + (30 + 3));
    } else {
      long v = r * 10 + r;
      ampi::send(&v, 1, 0, r);
    }
  });
}

TEST(Ampi, NonBlockingWaitAll) {
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    std::vector<double> inbox(static_cast<std::size_t>(n), -1.0);
    std::vector<ampi::Request> reqs;
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      reqs.push_back(
          ampi::irecv(&inbox[static_cast<std::size_t>(s)], 1,
                      ampi::Dtype::kDouble, s, 77));
    }
    for (int d = 0; d < n; ++d) {
      if (d == r) continue;
      double v = r + 0.5;
      ampi::send(&v, 1, ampi::Dtype::kDouble, d, 77);
    }
    ampi::wait_all(reqs);
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      EXPECT_DOUBLE_EQ(inbox[static_cast<std::size_t>(s)], s + 0.5);
    }
  });
}

TEST(Ampi, SendRecvExchange) {
  ampi::run(opts(2, 1), [] {
    const int r = ampi::rank();
    const int peer = 1 - r;
    int mine = r + 7, theirs = -1;
    ampi::sendrecv(&mine, 1, ampi::Dtype::kInt, peer, 3, &theirs, 1, peer, 3);
    EXPECT_EQ(theirs, peer + 7);
  });
}

TEST(Ampi, CollectivesBcastReduceAllreduce) {
  ampi::run(opts(8, 4), [] {
    const int r = ampi::rank();
    // bcast
    int word = (r == 2) ? 424242 : 0;
    ampi::bcast(&word, 1, ampi::Dtype::kInt, 2);
    EXPECT_EQ(word, 424242);
    // reduce (sum of ranks) at root 1
    long mine = r, total = -1;
    ampi::reduce(&mine, &total, 1, ampi::Dtype::kLong, ampi::Op::kSum, 1);
    if (r == 1) {
      EXPECT_EQ(total, 28);
    }
    // allreduce max
    double d = r * 1.5, mx = -1;
    ampi::allreduce(&d, &mx, 1, ampi::Dtype::kDouble, ampi::Op::kMax);
    EXPECT_DOUBLE_EQ(mx, 7 * 1.5);
    // allreduce_one convenience
    EXPECT_EQ(ampi::allreduce_one<int>(1, ampi::Op::kSum), 8);
  });
}

TEST(Ampi, GatherAndAllgather) {
  ampi::run(opts(6, 3), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    int mine = r * r;
    ampi::gather(&mine, 1, ampi::Dtype::kInt, all.data(), 0);
    if (r == 0) {
      for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i * i);
    }
    std::vector<int> all2(static_cast<std::size_t>(n), -1);
    ampi::allgather(&mine, 1, ampi::Dtype::kInt, all2.data());
    for (int i = 0; i < n; ++i) EXPECT_EQ(all2[static_cast<std::size_t>(i)], i * i);
  });
}

TEST(Ampi, BarrierSynchronizes) {
  static std::atomic<int> phase_count{0};
  phase_count = 0;
  ampi::run(opts(8, 2), [] {
    for (int round = 1; round <= 5; ++round) {
      phase_count.fetch_add(1);
      ampi::barrier();
      EXPECT_GE(phase_count.load(), 8 * round);
    }
  });
}

TEST(Ampi, YieldKeepsRanksLive) {
  ampi::run(opts(16, 2), [] {
    for (int i = 0; i < 20; ++i) ampi::yield();
    ampi::barrier();
  });
}

TEST(Ampi, DirectedMigrationMovesRanksAndTrafficFollows) {
  static std::atomic<int> moved_checks{0};
  moved_checks = 0;
  ampi::run(opts(4, 4), [] {
    const int r = ampi::rank();
    const int before_pe = ampi::my_pe();
    EXPECT_EQ(before_pe, r % 4);

    // Everyone rotates one PE to the right.
    ampi::migrate_to((before_pe + 1) % 4);

    EXPECT_EQ(ampi::my_pe(), (before_pe + 1) % 4);
    moved_checks.fetch_add(1);

    // Point-to-point still works after the move.
    int token = r;
    ampi::send(&token, 1, (r + 1) % 4, 11);
    int got = -1;
    ampi::recv(&got, 1, (r + 3) % 4, 11);
    EXPECT_EQ(got, (r + 3) % 4);
  });
  EXPECT_EQ(moved_checks.load(), 4);
}

TEST(Ampi, MigrationPreservesStackAndHeapState) {
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    // Build rank-specific stack and heap state.
    int stack_data[32];
    for (int i = 0; i < 32; ++i) stack_data[i] = r * 1000 + i;
    auto* heap_data = new double[100];
    for (int i = 0; i < 100; ++i) heap_data[i] = r + i * 0.25;
    int* self_ref = &stack_data[5];

    ampi::migrate_to((ampi::my_pe() + 1) % 2);

    EXPECT_EQ(self_ref, &stack_data[5]);
    for (int i = 0; i < 32; ++i) ASSERT_EQ(stack_data[i], r * 1000 + i);
    for (int i = 0; i < 100; ++i) ASSERT_DOUBLE_EQ(heap_data[i], r + i * 0.25);
    delete[] heap_data;
    ampi::barrier();
  });
}

TEST(Ampi, UnexpectedMessagesTravelWithTheRank) {
  ampi::run(opts(2, 2), [] {
    const int r = ampi::rank();
    if (r == 0) {
      // Send before rank 1 migrates; rank 1 receives after arriving at a
      // different PE: the unexpected-queue must migrate too.
      int v = 314;
      ampi::send(&v, 1, 1, 4);
      ampi::barrier();  // ensure delivery landed somewhere before the move
      ampi::migrate_to(ampi::my_pe());
    } else {
      ampi::barrier();
      ampi::migrate_to(0);  // move rank 1 onto PE 0
      int got = -1;
      ampi::recv(&got, 1, 0, 4);
      EXPECT_EQ(got, 314);
      EXPECT_EQ(ampi::my_pe(), 0);
    }
  });
}

TEST(Ampi, MeasurementBasedMigrateBalancesSkewedRanks) {
  // Half the ranks burn much more CPU. After migrate() with greedy, heavy
  // ranks should spread across PEs.
  static std::atomic<int> total_moved{0};
  total_moved = 0;
  ampi::Options o = opts(8, 2);
  o.lb_strategy = mfc::lb::greedy_lb;
  ampi::run(o, [] {
    const int r = ampi::rank();
    // Ranks 0..3 (all born on PEs 0,1,0,1 round-robin) — make ranks 0..3
    // heavy so initial placement is imbalanced in a structured way.
    volatile double sink = 0;
    const int reps = (r < 4) ? 4000000 : 10000;
    for (int i = 0; i < reps; ++i) sink = sink + i;
    const int moved = ampi::migrate();
    if (r == 0) total_moved.store(moved);
    ampi::barrier();
  });
  // The greedy strategy must have concluded some movement was useful.
  EXPECT_GT(total_moved.load(), 0);
}

TEST(Ampi, RepeatedMigrationCycles) {
  ampi::run(opts(4, 4), [] {
    long checksum = ampi::rank() * 7;
    for (int round = 0; round < 5; ++round) {
      ampi::migrate_to((ampi::my_pe() + 1) % 4);
      checksum += round;
    }
    EXPECT_EQ(checksum, ampi::rank() * 7 + 0 + 1 + 2 + 3 + 4);
    // After 5 rotations of 4 PEs: back to start + 1.
    EXPECT_EQ(ampi::my_pe(), (ampi::rank() + 5) % 4);
    ampi::barrier();
  });
}

TEST(Ampi, ManyRanksFewPes) {
  // Processor virtualization (paper §1): many more flows than processors.
  static std::atomic<long> grand{0};
  grand = 0;
  ampi::Options o = opts(64, 2);
  o.stack_bytes = 64 * 1024;
  ampi::run(o, [] {
    long v = ampi::allreduce_one<long>(ampi::rank(), ampi::Op::kSum);
    EXPECT_EQ(v, 64L * 63 / 2);
    grand.fetch_add(1);
  });
  EXPECT_EQ(grand.load(), 64);
}

// ---- Wire-format edges ------------------------------------------------------
//
// A point-to-point message travels as a 12-byte {src, dest, tag} header plus
// the user bytes in one pooled envelope, inline up to 64 bytes in all.

/// Byte `i` of the pattern rank `src` sends in message `seq`.
char pattern(int src, int seq, std::size_t i) {
  return static_cast<char>((src * 131 + seq * 17 + static_cast<int>(i)) & 0x7f);
}

bool pattern_ok(const std::vector<char>& buf, std::size_t n, int src,
                int seq) {
  for (std::size_t i = 0; i < n; ++i) {
    if (buf[i] != pattern(src, seq, i)) return false;
  }
  return true;
}

TEST(Ampi, ZeroByteMessagesPostedAndUnexpected) {
  ampi::run(opts(2, 2), [] {
    const int r = ampi::rank();
    if (r == 0) {
      ampi::barrier();  // rank 1 posted its first receive
      ampi::send(nullptr, 0, ampi::Dtype::kByte, 1, 3);
      ampi::send(nullptr, 0, ampi::Dtype::kByte, 1, 4);
      ampi::barrier();
    } else {
      ampi::Request posted = ampi::irecv(nullptr, 0, ampi::Dtype::kByte, 0, 3);
      ampi::barrier();
      ampi::barrier();  // the second message is now unexpected
      ampi::Status st;
      ampi::wait(posted, &st);
      EXPECT_EQ(st.bytes, 0u);
      EXPECT_EQ(st.tag, 3);
      ampi::recv(nullptr, 0, ampi::Dtype::kByte, 0, ampi::kAnyTag, &st);
      EXPECT_EQ(st.bytes, 0u);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 4);
    }
  });
}

TEST(Ampi, PayloadsAroundTheInlineLimit) {
  // 52 + 12 header bytes fill the inline buffer exactly; 53 spills. 64 and
  // 65 check the spill path once more, and 1 MiB a large heap payload.
  static const std::size_t kSizes[] = {1, 52, 53, 64, 65, 1 << 20};
  ampi::run(opts(3, 2), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    std::vector<char> buf(1 << 20);
    int seq = 0;
    for (std::size_t bytes : kSizes) {
      for (int posted_first = 0; posted_first < 2; ++posted_first, ++seq) {
        const int from = (r + n - 1) % n;
        ampi::Request req;
        if (posted_first) {
          req = ampi::irecv(buf.data(), bytes, ampi::Dtype::kByte, from, seq);
        }
        ampi::barrier();
        std::vector<char> out(bytes);
        for (std::size_t i = 0; i < bytes; ++i) out[i] = pattern(r, seq, i);
        ampi::send(out.data(), bytes, ampi::Dtype::kByte, (r + 1) % n, seq);
        ampi::barrier();  // unexpected legs: the message has landed
        ampi::Status st;
        if (posted_first) {
          ampi::wait(req, &st);
        } else {
          ampi::recv(buf.data(), buf.size(), ampi::Dtype::kByte, from, seq,
                     &st);
        }
        EXPECT_EQ(st.bytes, bytes);
        EXPECT_EQ(st.source, from);
        EXPECT_TRUE(pattern_ok(buf, bytes, from, seq)) << bytes << " bytes";
      }
    }
  });
}

TEST(AmpiDeath, MessageLongerThanThePostedBuffer) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ampi::run(opts(2, 1),
                         [] {
                           long big[4] = {1, 2, 3, 4};
                           if (ampi::rank() == 0) {
                             ampi::send(big, 4, 1, 0);
                           } else {
                             long small[2];
                             ampi::recv(small, 2, 0, 0);
                           }
                         }),
               "longer than receive buffer");
}

TEST(Ampi, MessagesHeldThroughTheTransitWindow) {
  // Rank 0, the barrier root, moves with an 8 MiB isomalloc heap while the
  // other ranks go straight on into do_migration's barrier: their tokens
  // name rank 0's new PE, reach it while rank 0 is still being packed and
  // shipped, and wait there (the held path) until it arrives.
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    constexpr std::size_t kBallast = std::size_t{1} << 20;
    auto* ballast = static_cast<double*>(
        mfc::iso::routed_malloc((r == 0 ? kBallast : 1) * sizeof(double)));
    for (std::size_t i = 0; i < (r == 0 ? kBallast : 1); ++i) ballast[i] = 2.5;
    for (int round = 0; round < 3; ++round) {
      const int dest = r == 0 ? (ampi::my_pe() + 1) % 2 : ampi::my_pe();
      ampi::migrate_to(dest);
      EXPECT_EQ(ampi::my_pe(), dest);
      int token = r * 10 + round, got = -1;
      ampi::Status st;
      ampi::sendrecv(&token, 1, ampi::Dtype::kInt, (r + 1) % 4, round, &got,
                     1, (r + 3) % 4, round, &st);
      EXPECT_EQ(got, ((r + 3) % 4) * 10 + round);
    }
    EXPECT_EQ(ballast[r == 0 ? kBallast - 1 : 0], 2.5);
    mfc::iso::routed_free(ballast);
  });
}

TEST(Ampi, WildcardOrderingAcrossPostedAndUnexpected) {
  // Rank 0 posts some wildcard receives before the senders start and picks
  // up the rest after everything landed: per sender, the sequence numbers
  // must still come out in send order (MPI non-overtaking).
  static constexpr int kPerSender = 30;
  static constexpr int kPosted = 12;
  ampi::run(opts(4, 2), [] {
    const int r = ampi::rank();
    const int n = ampi::size();
    if (r != 0) {
      ampi::barrier();
      for (int seq = 0; seq < kPerSender; ++seq) {
        ampi::send(&seq, 1, 0, /*tag=*/seq % 3);
      }
      ampi::barrier();
      return;
    }
    std::vector<int> got(kPosted, -1);
    std::vector<ampi::Request> posted;
    for (int i = 0; i < kPosted; ++i) {
      posted.push_back(ampi::irecv(&got[static_cast<std::size_t>(i)], 1,
                                   ampi::Dtype::kInt, ampi::kAnySource,
                                   ampi::kAnyTag));
    }
    ampi::barrier();
    ampi::barrier();  // every message has landed
    std::vector<int> next(static_cast<std::size_t>(n), 0);
    auto take = [&](int value, const ampi::Status& st) {
      ASSERT_GT(st.source, 0);
      EXPECT_EQ(value, next[static_cast<std::size_t>(st.source)]++);
      EXPECT_EQ(st.tag, value % 3);
    };
    for (int i = 0; i < kPosted; ++i) {
      ampi::Status st;
      ampi::wait(posted[static_cast<std::size_t>(i)], &st);
      take(got[static_cast<std::size_t>(i)], st);
    }
    for (int i = kPosted; i < (n - 1) * kPerSender; ++i) {
      // Alternate a wildcard with a named sender that still has messages.
      int src = ampi::kAnySource;
      for (int s = 1; i % 2 == 1 && s < n; ++s) {
        if (next[static_cast<std::size_t>(s)] < kPerSender) {
          src = s;
          break;
        }
      }
      int value = -1;
      ampi::Status st;
      ampi::recv(&value, 1, src, ampi::kAnyTag, &st);
      take(value, st);
    }
    for (int s = 1; s < n; ++s) {
      EXPECT_EQ(next[static_cast<std::size_t>(s)], kPerSender);
    }
  });
}

}  // namespace
