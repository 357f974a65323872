// Transport conformance battery (labeled transport).
//
// One battery, three backends: the in-process lock-free queues, the shm
// SPSC rings, and the AF_UNIX socket stream — each behind Machine::Config's
// transport knob, in loopback mode (nprocs == 1, every cross-PE send over
// the wire inside one process: the tsan-visible leg) and in true
// multi-process mode (Machine::run forks; only cross-process sends hit the
// wire). The battery checks what a machine layer must never get wrong:
// per-pair ordering, exactly-once delivery under seeded chaos
// delay/reorder, big-payload integrity through the chunk and rendezvous
// paths, full migration storms (all three techniques, canary + address
// stability + bit-identical same-seed replay), and balanced quiescence /
// envelope books at shutdown (Machine::run itself asserts the latter).
//
// Fork-based legs are compiled out under ThreadSanitizer (MFC_TSAN): tsan
// does not follow forked children. Loopback legs keep the full wire path
// under tsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chaos/storm.h"
#include "converse/machine.h"
#include "converse/transport.h"
#include "migrate/common_arena.h"
#include "migrate/iso_thread.h"
#include "migrate/memalias_thread.h"
#include "migrate/migratable.h"
#include "migrate/stackcopy_thread.h"
#include "pup/pup.h"
#include "trace/metrics.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

namespace cv = mfc::converse;
using mfc::fnv1a;
using mfc::fnv1a_mix;
using mfc::kFnvOffset;
using mfc::SplitMix64;
using Transport = cv::Machine::Config::Transport;

constexpr Transport kBackends[] = {Transport::kInProc, Transport::kShm,
                                   Transport::kSocket};
const char* backend_name(Transport t) {
  switch (t) {
    case Transport::kInProc: return "inproc";
    case Transport::kShm: return "shm";
    case Transport::kSocket: return "socket";
  }
  return "?";
}

cv::Machine::Config base_config(Transport t, int npes, int nprocs) {
  cv::Machine::Config mc;
  mc.npes = npes;
  mc.nprocs = nprocs;
  mc.transport = t;
  mc.iso_slot_bytes = 16 * 1024;
  mc.iso_slots_per_pe = 64;
  return mc;
}

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  SplitMix64 r(a ^ (b + 0x9e3779b97f4a7c15ULL));
  return r.next();
}

void fill_pattern(unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<unsigned char>(r.next());
  }
}

bool check_pattern(const unsigned char* p, std::size_t n, std::uint64_t key) {
  SplitMix64 r(key);
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != static_cast<unsigned char>(r.next())) return false;
  }
  return true;
}

// ---- Ordering / exactly-once battery ---------------------------------------
//
// Every PE floods every other PE with sequenced messages. Receivers verify
// per-(src, dest) FIFO (no chaos) or exactly-once completeness (chaos
// delay on: order may legally invert, identity may not). All verdicts
// travel to PE 0 as messages, so the multi-process legs report through the
// parent — per-process globals on child PEs are invisible to the test body.

struct SeqMsg {
  std::int32_t src = 0;
  std::int32_t seq = 0;
  void pup(mfc::pup::Er& p) { p | src | seq; }
};

struct SeqState {
  int npes = 0;
  int per_pair = 0;
  bool expect_fifo = true;
  /// Nonzero: senders pause at seeded points long enough for receivers to
  /// park between messages (the park/wake churn leg).
  std::uint64_t pause_seed = 0;
  // Per-process receive books: [dest][src] → next expected seq (FIFO) or
  // received count (chaos). Only this process's PEs' rows are touched.
  std::vector<std::vector<std::int32_t>> next_seq;
  std::vector<std::vector<std::vector<bool>>> seen;  // [dest][src][seq]
  std::atomic<std::uint64_t> local_violations{0};
  // PE0 (parent process) totals.
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> pes_reported{0};
};
SeqState* g_seq = nullptr;

cv::HandlerId h_seq, h_seq_report;

void ensure_seq_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_seq = cv::register_handler([](cv::Message&& m) {
      SeqState* s = g_seq;
      const auto msg = m.as<SeqMsg>();
      const int dest = cv::my_pe();
      bool bad = false;
      if (s->expect_fifo) {
        bad = s->next_seq[dest][msg.src] != msg.seq;
        s->next_seq[dest][msg.src] = msg.seq + 1;
      } else {
        const std::size_t q = static_cast<std::size_t>(msg.seq);
        bad = s->seen[dest][msg.src][q];  // duplicate delivery
        s->seen[dest][msg.src][q] = true;
        s->next_seq[dest][msg.src] += 1;  // count received
      }
      if (bad) s->local_violations.fetch_add(1, std::memory_order_relaxed);
    });
    h_seq_report = cv::register_handler([](cv::Message&& m) {
      // PE0: one report per PE {violations on that PE's rows}.
      g_seq->violations.fetch_add(m.as<std::uint64_t>(),
                                  std::memory_order_relaxed);
      g_seq->pes_reported.fetch_add(1, std::memory_order_relaxed);
    });
  });
}

void seq_entry(int pe) {
  SeqState* s = g_seq;
  SplitMix64 pace(s->pause_seed ^ static_cast<std::uint64_t>(pe + 1));
  for (int seq = 0; seq < s->per_pair; ++seq) {
    for (int dest = 0; dest < s->npes; ++dest) {
      if (dest == pe) continue;
      cv::send_value(dest, h_seq, SeqMsg{pe, seq});
      // Block this PE's kernel thread, not just the ULT: every receiver
      // runs dry, spins out and parks, so the next send must wake it.
      if (s->pause_seed != 0 && pace.next() % 4 == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(20 + pace.next() % 300));
      }
    }
  }
  cv::wait_quiescence();
  // Everything sent everywhere is delivered: audit this PE's receive rows.
  std::uint64_t bad = 0;
  for (int src = 0; src < s->npes; ++src) {
    if (src == pe) continue;
    if (s->next_seq[pe][src] != s->per_pair) ++bad;
    if (!s->expect_fifo) {
      for (int q = 0; q < s->per_pair; ++q) {
        if (!s->seen[pe][src][static_cast<std::size_t>(q)]) ++bad;
      }
    }
  }
  cv::send_value(0, h_seq_report, bad);
  // The handler-observed violations live in this process; ship them exactly
  // once per process (the PE with id % ppn == 0 reports the whole count).
  cv::barrier();
  if (pe % (s->npes / cv::num_procs()) == 0) {
    cv::send_value(0, h_seq_report,
                   s->local_violations.exchange(0, std::memory_order_relaxed));
  }
  cv::wait_quiescence();
}

void run_seq_battery(Transport t, int nprocs, bool chaos_delay,
                     std::uint64_t seed, std::uint64_t pause_seed = 0) {
  const int npes = 4;
  const int per_pair = pause_seed != 0 ? 60 : 200;
  ensure_seq_handlers();
  auto s = std::make_unique<SeqState>();
  s->npes = npes;
  s->per_pair = per_pair;
  s->expect_fifo = !chaos_delay;
  s->pause_seed = pause_seed;
  s->next_seq.assign(npes, std::vector<std::int32_t>(npes, 0));
  s->seen.assign(npes, std::vector<std::vector<bool>>(
                           npes, std::vector<bool>(per_pair, false)));
  g_seq = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  if (chaos_delay) {
    mc.chaos.enabled = true;
    mc.chaos.seed = seed;
    mc.chaos.delivery_delay = 0.25;
    mc.chaos.max_delay_ticks = 16;
  }
  cv::Machine::run(mc, seq_entry);

  EXPECT_EQ(s->violations.load(), 0u)
      << backend_name(t) << " nprocs=" << nprocs
      << (chaos_delay ? " (chaos)" : "");
  // One audit report per PE plus one violation report per process.
  EXPECT_EQ(s->pes_reported.load(),
            static_cast<std::uint64_t>(npes + nprocs));
  const cv::PoolStats ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  g_seq = nullptr;
}

TEST(TransportConformance, OrderingPerPairLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_seq_battery(t, 1, /*chaos_delay=*/false, 1);
  }
}

TEST(TransportConformance, ExactlyOnceUnderSeededChaosLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_seq_battery(t, 1, /*chaos_delay=*/true, 0xC4A05 + 17);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, OrderingPerPairMultiProcess) {
  run_seq_battery(Transport::kShm, 2, /*chaos_delay=*/false, 1);
  run_seq_battery(Transport::kSocket, 2, /*chaos_delay=*/false, 1);
}
#endif

// Park/wake churn: seeded sender pauses make receivers park between
// messages, so nearly every delivery goes through a wake (a parker in this
// process, or the destination's doorbell across processes). A lost wake
// hangs the run; a double drain shows up as a sequence violation.
TEST(TransportConformance, ParkWakeChurnLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_seq_battery(t, 1, /*chaos_delay=*/false, 1, /*pause_seed=*/0x9A4C);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, ParkWakeChurnMultiProcessShm) {
  run_seq_battery(Transport::kShm, 2, /*chaos_delay=*/false, 1,
                  /*pause_seed=*/0x9A4C);
}
#endif

// ---- 1-deep ping-pong latency over shm loopback -----------------------------
//
// One message in flight between two PEs, so every hop lands on a receiver
// that has run dry. The hop must cost a wake, not a sleep: a receive path
// that waits for a polling thread's sleep quantum (50 us and up) cannot meet
// the bound. The destination PEs drain the rings themselves, which the
// kWirePeDrains counter shows.

struct PingState {
  mfc::ult::Thread* waiter = nullptr;
  double t0 = 0.0;
  double t1 = 0.0;
};
PingState g_ping;
cv::HandlerId h_ping;

void ensure_ping_handler() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_ping = cv::register_handler([](cv::Message&& m) {
      const int left = m.as<int>();
      if (left > 0) {
        cv::send_value(static_cast<int>(m.src_pe), h_ping, left - 1);
      } else {
        cv::ready_thread(g_ping.waiter);
      }
    });
  });
}

/// Mean seconds per hop of one `hops`-long 1-deep ping-pong on shm loopback.
double shm_pingpong_hop_s(int hops) {
  ensure_ping_handler();
  cv::Machine::Config mc = base_config(Transport::kShm, 2, 1);
  cv::Machine::run(mc, [hops](int pe) {
    cv::barrier();
    if (pe == 0) {
      g_ping.waiter = cv::pe_scheduler().running();
      g_ping.t0 = mfc::wall_time();
      cv::send_value(1, h_ping, hops - 1);
      cv::pe_scheduler().suspend();
      g_ping.t1 = mfc::wall_time();
    }
    cv::barrier();
  });
  return (g_ping.t1 - g_ping.t0) / hops;
}

TEST(TransportConformance, ShmLoopbackPingPongWakesReceiver) {
  // Half a 50 us sleep quantum. On a 4-CPU x86 host the wake path runs
  // ~4 us/hop; a receiver that sleep-polls the rings runs ~59 on every try.
  // Up to 5 tries, stopping at the first under the bar, so one run that a
  // loaded host descheduled does not decide the verdict (the test is also
  // RUN_SERIAL in CTest).
  constexpr int kHops = 2000;
  constexpr double kMaxHopUs = 25.0;
#ifdef MFC_TSAN
  constexpr int kMaxTries = 1;  // no time bar under tsan; one run checks drains
#else
  constexpr int kMaxTries = 5;
#endif
  double best = 1e9;
  std::uint64_t pe_drains = 0;
  int tries = 0;
  while (tries < kMaxTries) {
    ++tries;
    best = std::min(best, shm_pingpong_hop_s(kHops));
    pe_drains = std::max(
        pe_drains, mfc::metrics::total(mfc::metrics::Counter::kWirePeDrains));
    if (best * 1e6 < kMaxHopUs) break;
  }
  std::printf("shm loopback 1-deep pingpong: %.2f us/hop (best of %d)\n",
              best * 1e6, tries);
  EXPECT_GT(pe_drains, 0u) << "no PE drained the rings itself";
#ifndef MFC_TSAN
  EXPECT_LT(best * 1e6, kMaxHopUs);
#endif
}

// ---- Shutdown: a frame published after the final sweep -------------------
//
// The comm thread's last sweep closes the rings to PE drains. A frame that a
// straggling sender publishes after that sets the doorbell's pending flag
// again; a PE draining then must still return to its stop check (it once
// re-took the consumer token forever, pinning the PE at 100% CPU).

TEST(TransportConformance, ShmDrainReturnsAfterFinalSweep) {
  namespace tp = cv::transport;
  tp::Options o;
  o.npes = 2;
  auto wire = tp::make_shm_transport(o);
  std::atomic<int> delivered{0};
  tp::Hooks hooks;
  hooks.alloc = [](const cv::wire::Header&, std::uint64_t n) {
    auto* m = new cv::Message();
    m->payload.resize(n);
    return m;
  };
  hooks.enqueue = [&](cv::Message* m) {
    delivered.fetch_add(1);
    delete m;
  };
  hooks.drop = [](cv::Message* m) { delete m; };
  hooks.wake_pe = [](int) {};
  wire->start(0, std::move(hooks));
  wire->stop_local();
  wire->join();  // the comm thread's final sweep has run

  namespace wr = mfc::converse::wire;
  wr::Header h;
  h.kind = static_cast<std::uint32_t>(wr::Kind::kEager);
  h.src_pe = 1;
  h.dest_pe = 0;
  const char byte = 7;
  const wr::Span span{&byte, 1};
  h.payload_len = h.total_len = 1;
  wire->send(h, &span, 1, nullptr);
  ASSERT_TRUE(wire->inbound_pending());

  std::promise<bool> drained;
  std::future<bool> result = drained.get_future();
  std::thread pe([&wire, &drained] {
    drained.set_value(wire->drain_inbound());
  });
  if (result.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    pe.detach();  // still spinning: leak it, the verdict is in
    wire.release();
    FAIL() << "drain_inbound() never returned after the final sweep";
  }
  pe.join();
  EXPECT_FALSE(result.get()) << "a closed wire delivers nothing";
  EXPECT_FALSE(wire->inbound_pending()) << "idle PEs would spin on the flag";
  EXPECT_EQ(delivered.load(), 0);
}

// ---- Big-payload round trip -------------------------------------------------
//
// PE 0 ships a 1 MiB patterned payload as a multi-span message to the last
// PE, which echoes its FNV digest (and length) back. Exercises the shm
// chunk reassembly (1 MiB through 64 KiB rings) and, cross-process, the
// socket rendezvous (RTS/CTS + writev straight from the spans).

struct BigState {
  std::size_t len = 0;
  std::uint64_t digest = 0;
  std::atomic<std::uint64_t> echoed_digest{0};
  std::atomic<int> done{0};
};
BigState* g_big = nullptr;

cv::HandlerId h_big, h_big_echo;

void ensure_big_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_big = cv::register_handler([](cv::Message&& m) {
      // Echo digest + length; payload itself stays here (child process).
      std::uint64_t d = fnv1a(m.payload.data(), m.payload.size());
      d = fnv1a_mix(d, m.payload.size());
      cv::send_value(0, h_big_echo, d);
    });
    h_big_echo = cv::register_handler([](cv::Message&& m) {
      g_big->echoed_digest.store(m.as<std::uint64_t>());
      g_big->done.store(1);
    });
  });
}

void big_entry(int pe) {
  BigState* s = g_big;
  const int dest = cv::num_pes() - 1;
  if (pe == 0) {
    // Patterned payload sliced into 7 deliberately uneven spans.
    std::vector<char> buf(s->len);
    fill_pattern(reinterpret_cast<unsigned char*>(buf.data()), buf.size(),
                 0xB16B00B5);
    std::uint64_t expect = fnv1a(buf.data(), buf.size());
    expect = fnv1a_mix(expect, buf.size());
    s->digest = expect;
    std::vector<cv::SendSpan> spans;
    std::size_t off = 0;
    const std::size_t cuts[] = {1,       4095,    4096,   65536,
                                 100000, 333333, s->len};
    for (std::size_t c : cuts) {
      spans.push_back({buf.data() + off, c - off});
      off = c;
    }
    bool consumed = false;
    cv::send_spans(dest, h_big, spans.data(), spans.size(),
                   [&consumed] { consumed = true; });
    // The send contract: spans fully consumed before return — safe to
    // scribble over the buffer now.
    EXPECT_TRUE(consumed);
    std::memset(buf.data(), 0xEE, buf.size());
  }
  cv::wait_quiescence();
}

void run_big_battery(Transport t, int nprocs) {
  const int npes = 4;
  ensure_big_handlers();
  auto s = std::make_unique<BigState>();
  s->len = 1024 * 1024;
  g_big = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  cv::Machine::run(mc, big_entry);

  EXPECT_EQ(s->done.load(), 1);
  EXPECT_EQ(s->echoed_digest.load(), s->digest)
      << backend_name(t) << " nprocs=" << nprocs;
  if (t == Transport::kShm) {
    // 1 MiB through 64 KiB rings must have chunked.
    EXPECT_GT(mfc::metrics::total(mfc::metrics::Counter::kWireChunks), 0u);
  }
  if (t == Transport::kSocket && nprocs > 1) {
    // Cross-process over the default 256 KiB threshold → rendezvous.
    EXPECT_GT(mfc::metrics::total(mfc::metrics::Counter::kWireRendezvous),
              0u);
  }
  g_big = nullptr;
}

TEST(TransportConformance, BigPayloadLoopback) {
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    run_big_battery(t, 1);
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, BigPayloadRendezvousMultiProcess) {
  run_big_battery(Transport::kShm, 2);
  run_big_battery(Transport::kSocket, 2);
}
#endif

// ---- Migration mini-storm ---------------------------------------------------
//
// A compact cross-process migration storm: workers on all three techniques
// migrate along seed-derived itineraries; every hop ships the thread as a
// scatter-gather manifest (send_spans with the destructive pack epilogue in
// on_consumed). Workers verify stack canaries and address stability after
// every hop and carry a running digest on their own migrating stacks; all
// verdicts funnel to PE 0 as messages. The final digest is a pure function
// of (seed, workers, rounds, npes) — bit-identical across runs and
// backends.

struct MsDock {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  void pup(mfc::pup::Er& p) { p | wid | round; }
};

struct MsShip {
  std::int32_t wid = 0;
  std::int32_t round = 0;
  std::vector<char> wire;
  void pup(mfc::pup::Er& p) { p | wid | round | wire; }
};

struct MsDone {
  std::int32_t wid = 0;
  std::uint64_t digest = 0;
  std::uint64_t failures = 0;
  void pup(mfc::pup::Er& p) { p | wid | digest | failures; }
};

struct MsState {
  std::uint64_t seed = 1;
  int npes = 4;
  int workers = 6;
  int rounds = 3;
  std::size_t stack_bytes = 16 * 1024;

  // Per-process registries (mirrors of the full storm driver's).
  std::mutex mu;
  std::unordered_map<int, mfc::migrate::MigratableThread*> threads;
  struct Arrival {
    mfc::ult::Thread* t;
    std::int32_t round;
  };
  std::unordered_map<int, std::vector<Arrival>> arrived;  // per local PE
  std::unordered_map<int, mfc::ult::Thread*> parked_mains;
  /// PEs whose finish order arrived before their main parked: a PE's loop
  /// can dispatch messages before its main thread first runs.
  std::unordered_set<int> finished_early;

  // PE 0 (parent) coordinator state.
  int arrivals = 0;
  int dones = 0;
  mfc::ult::Thread* coordinator = nullptr;
  bool waiting_arrivals = false;
  bool waiting_dones = false;
  std::uint64_t done_digest = kFnvOffset;
  std::uint64_t failures = 0;
};
MsState* g_ms = nullptr;

int ms_dest(const MsState& s, int wid, int round) {
  return static_cast<int>(
      mix2(s.seed ^ 0xD857,
           static_cast<std::uint64_t>(wid) * 1000003ULL +
               static_cast<std::uint64_t>(round)) %
      static_cast<std::uint64_t>(s.npes));
}

std::uint64_t ms_pat_key(const MsState& s, int wid, int r) {
  return mix2(s.seed ^ 0x57AC4, static_cast<std::uint64_t>(wid) * 7919ULL +
                                    static_cast<std::uint64_t>(r));
}

cv::HandlerId h_ms_dock, h_ms_ship, h_ms_arrived, h_ms_release, h_ms_done,
    h_ms_finish;

// wid arrives as a lambda capture and from then on lives in this frame —
// i.e. on the migrating stack. Keying identity off ult thread ids would be
// wrong here: the id counter is forked, so workers born in different
// processes can collide.
void ms_worker_body(int wid) {
  MsState* s = g_ms;
  unsigned char canary[192];
  const auto canary_addr = reinterpret_cast<std::uintptr_t>(&canary[0]);
  fill_pattern(canary, sizeof canary, ms_pat_key(*s, wid, 0));

  std::uint64_t digest = kFnvOffset;
  std::uint64_t failures = 0;
  for (int r = 0; r < s->rounds; ++r) {
    const int dest = ms_dest(*s, wid, r);
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(wid));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(r));
    digest = fnv1a_mix(digest, static_cast<std::uint64_t>(dest));

    cv::send_value(cv::my_pe(), h_ms_dock, MsDock{wid, r});
    mfc::ult::suspend();

    // Awake on the destination — possibly in a different process.
    if (cv::my_pe() != dest) ++failures;
    if (reinterpret_cast<std::uintptr_t>(&canary[0]) != canary_addr) {
      ++failures;  // the paper's core guarantee: same address everywhere
    }
    if (!check_pattern(canary, sizeof canary, ms_pat_key(*s, wid, r))) {
      ++failures;
    }
    fill_pattern(canary, sizeof canary, ms_pat_key(*s, wid, r + 1));
  }
  cv::send_value(0, h_ms_done, MsDone{wid, digest, failures});
}

mfc::migrate::MigratableThread* ms_make_worker(const MsState& s, int wid,
                                               int pe) {
  const auto body = [wid] { ms_worker_body(wid); };
  switch (wid % 3) {
    case 0:
      return new mfc::migrate::StackCopyThread(body, s.stack_bytes);
    case 1:
      return new mfc::migrate::IsoThread(body, pe, s.stack_bytes);
    default:
      return new mfc::migrate::MemAliasThread(body, s.stack_bytes);
  }
}

void ensure_ms_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_ms_dock = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto d = m.as<MsDock>();
      mfc::migrate::MigratableThread* t;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        t = s->threads.at(d.wid);
        s->threads.erase(d.wid);
      }
      // Scatter-gather ship, exactly the storm driver's path: ShipMsg-shaped
      // prefix + manifest spans, destructive epilogue in on_consumed.
      mfc::migrate::ImageManifest man = t->pack_manifest(true);
      std::vector<char> scratch;
      const auto img_spans = man.wire_spans(&scratch);
      std::size_t wire_len = 0;
      for (const auto& r : img_spans) wire_len += r.len;

      std::int32_t wid = d.wid, round = d.round;
      mfc::pup::Sizer sz;
      sz | wid | round;
      std::vector<char> prefix(sz.size() + sizeof(std::size_t));
      mfc::pup::MemPacker p(prefix.data(), prefix.size());
      p | wid | round;
      std::size_t len_word = wire_len;
      p.bytes(&len_word, sizeof len_word);

      std::vector<cv::SendSpan> spans;
      spans.reserve(img_spans.size() + 1);
      spans.push_back({prefix.data(), prefix.size()});
      for (const auto& r : img_spans) spans.push_back({r.data, r.len});

      cv::send_spans(ms_dest(*s, d.wid, d.round), h_ms_ship, spans.data(),
                     spans.size(), [t] {
                       t->complete_pack();
                       delete t;
                     });
    });
    h_ms_ship = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      auto ship = m.as<MsShip>();
      mfc::migrate::ThreadImage image;
      mfc::pup::from_bytes(ship.wire, image);
      auto* t = mfc::migrate::MigratableThread::unpack(std::move(image),
                                                      cv::my_pe());
      t->set_delete_on_exit(true);
      {
        std::lock_guard<std::mutex> lock(s->mu);
        s->threads[ship.wid] = t;
        s->arrived[cv::my_pe()].push_back({t, ship.round});
      }
      cv::send_value(0, h_ms_arrived, std::int32_t{ship.round});
    });
    h_ms_arrived = cv::register_handler([](cv::Message&&) {
      MsState* s = g_ms;
      if (++s->arrivals == s->workers && s->waiting_arrivals) {
        s->waiting_arrivals = false;
        cv::ready_thread(s->coordinator);
      }
    });
    h_ms_release = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto round = m.as<std::int32_t>();
      std::vector<mfc::ult::Thread*> batch;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto& list = s->arrived[cv::my_pe()];
        for (auto it = list.begin(); it != list.end();) {
          if (it->round == round) {
            batch.push_back(it->t);
            it = list.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (auto* t : batch) cv::ready_thread(t);
    });
    h_ms_done = cv::register_handler([](cv::Message&& m) {
      MsState* s = g_ms;
      const auto done = m.as<MsDone>();
      // Order-independent fold: arrival order of done messages varies.
      s->done_digest += mix2(static_cast<std::uint64_t>(done.wid) + 1,
                             done.digest);
      s->failures += done.failures;
      if (++s->dones == s->workers && s->waiting_dones) {
        s->waiting_dones = false;
        cv::ready_thread(s->coordinator);
      }
    });
    h_ms_finish = cv::register_handler([](cv::Message&&) {
      MsState* s = g_ms;
      mfc::ult::Thread* main = nullptr;
      {
        std::lock_guard<std::mutex> lock(s->mu);
        auto it = s->parked_mains.find(cv::my_pe());
        if (it != s->parked_mains.end()) {
          main = it->second;
          s->parked_mains.erase(it);
        } else {
          s->finished_early.insert(cv::my_pe());
        }
      }
      if (main != nullptr) cv::ready_thread(main);
    });
  });
}

void ms_entry(int pe) {
  MsState* s = g_ms;
  for (int w = 0; w < s->workers; ++w) {
    if (w % s->npes != pe) continue;
    auto* t = ms_make_worker(*s, w, pe);
    t->set_delete_on_exit(true);
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->threads[w] = t;
    }
    cv::ready_thread(t);
  }
  if (pe != 0) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->finished_early.erase(pe) != 0) return;
      s->parked_mains[pe] = cv::pe_scheduler().running();
    }
    mfc::ult::suspend();  // until h_ms_finish
    return;
  }

  // PE 0 coordinates the rounds: wait all arrivals, release the batch.
  s->coordinator = cv::pe_scheduler().running();
  for (int r = 0; r < s->rounds; ++r) {
    if (s->arrivals < s->workers) {
      s->waiting_arrivals = true;
      mfc::ult::suspend();
    }
    s->arrivals = 0;
    cv::broadcast(h_ms_release, mfc::pup::to_bytes(std::int32_t{r}));
  }
  if (s->dones < s->workers) {
    s->waiting_dones = true;
    mfc::ult::suspend();
  }
  cv::broadcast(h_ms_finish, {});
  cv::wait_quiescence();
}

struct MsResult {
  std::uint64_t digest = 0;
  std::uint64_t failures = 0;
};

MsResult run_mini_storm(Transport t, int npes, int nprocs, int workers,
                        int rounds, std::uint64_t seed) {
  // Shared execution addresses for stack-copy and memory-alias workers must
  // exist before Machine::run forks.
  mfc::migrate::CommonStackArena::instance();
  ensure_ms_handlers();
  auto s = std::make_unique<MsState>();
  s->seed = seed;
  s->npes = npes;
  s->workers = workers;
  s->rounds = rounds;
  g_ms = s.get();

  cv::Machine::Config mc = base_config(t, npes, nprocs);
  cv::Machine::run(mc, ms_entry);

  MsResult out{s->done_digest, s->failures};
  EXPECT_EQ(s->dones, workers);
  const cv::PoolStats ps = cv::pool_stats();
  EXPECT_EQ(ps.allocated, ps.freed);
  g_ms = nullptr;
  return out;
}

TEST(TransportConformance, MiniStormAllBackendsLoopbackReplayIdentical) {
  // Same seed, three backends, two runs each: zero failures and one digest.
  std::uint64_t expect = 0;
  for (Transport t : kBackends) {
    SCOPED_TRACE(backend_name(t));
    const MsResult a = run_mini_storm(t, 4, 1, 6, 3, 0x5EED1);
    const MsResult b = run_mini_storm(t, 4, 1, 6, 3, 0x5EED1);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_EQ(a.digest, b.digest) << "same-seed replay diverged";
    if (expect == 0) expect = a.digest;
    EXPECT_EQ(a.digest, expect) << "digest differs across backends";
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, MiniStormMultiProcessBothWires) {
  // Cross-process migration with all three techniques: the isomalloc lease,
  // the inherited common arena, and the rebuilt memalias backing all in
  // play. Digest must match the loopback/in-process value for the same
  // (seed, shape).
  const MsResult ref = run_mini_storm(Transport::kInProc, 4, 1, 6, 3, 0xAB1E);
  EXPECT_EQ(ref.failures, 0u);
  for (Transport t : {Transport::kShm, Transport::kSocket}) {
    SCOPED_TRACE(backend_name(t));
    const MsResult r = run_mini_storm(t, 4, 2, 6, 3, 0xAB1E);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.digest, ref.digest);
  }
}

TEST(TransportConformance, Acceptance64Pe4ProcStormReplays) {
  // The acceptance shape: 64 PEs across 4 processes, all three techniques,
  // run twice — bit-identical digests. Kept to few rounds/workers because
  // CI hosts may have a single core; the topology, not the volume, is the
  // point.
  for (Transport t : {Transport::kShm, Transport::kSocket}) {
    SCOPED_TRACE(backend_name(t));
    const MsResult a = run_mini_storm(t, 64, 4, 24, 3, 0xACC3);
    const MsResult b = run_mini_storm(t, 64, 4, 24, 3, 0xACC3);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_EQ(a.digest, b.digest);
  }
}
#endif

// ---- Full storm driver over the wire ---------------------------------------
//
// The legacy storm driver (chare-array traffic, invariant checkers, FT
// kill/recover) in loopback wire mode: every cross-PE message of the whole
// stack rides the ring/socket codec. The FT leg keeps chaos kill storms in
// the battery — PE death, heartbeat detection, rollback — on a wire.

TEST(TransportConformance, StormDriverLoopbackWires) {
  for (int transport : {1, 2}) {
    SCOPED_TRACE(transport == 1 ? "shm" : "socket");
    mfc::chaos::StormOptions opt;
    opt.seed = 77;
    opt.npes = 4;
    opt.workers = 6;
    opt.rounds = 3;
    opt.transport = transport;
    const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.thread_migrations,
              static_cast<std::uint64_t>(opt.workers * opt.rounds));
  }
}

#ifndef MFC_TSAN
TEST(TransportConformance, FtKillStormOverShmLoopback) {
  mfc::chaos::StormOptions opt;
  opt.seed = 31;
  opt.npes = 4;
  opt.workers = 6;
  opt.rounds = 6;
  opt.transport = 1;
  opt.ft_checkpoint_every = 2;
  opt.ft_kill_every = 2;
  opt.ft_ping_interval_us = 500;
  opt.ft_timeout_us = 20000;
  const mfc::chaos::StormReport rep = mfc::chaos::run_storm(opt);
  EXPECT_TRUE(rep.clean());
  EXPECT_GT(rep.ft_kills, 0u);
  EXPECT_EQ(rep.ft_recoveries, rep.ft_kills);
}
#endif

}  // namespace
