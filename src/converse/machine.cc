#include "converse/machine.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "converse/transport.h"
#include "iso/heap.h"
#include "trace/probe.h"
#include "util/check.h"
#include "util/log.h"
#include "util/queue.h"
#include "util/timer.h"

namespace mfc::converse {

namespace {

// ---- Handler registry ----
//
// Registration is mutex-guarded (it is cold: module init / first use), but
// the table itself is a fixed-capacity array of atomic slots so dispatch()
// is a bounds check plus one acquire load — no lock, ever. Handler ids only
// reach other PEs through messages, and the queue's release/acquire pair
// makes the slot store visible before any message naming it can arrive.
constexpr std::size_t kMaxHandlers = 1024;

std::mutex g_register_mutex;
std::atomic<HandlerFn*> g_handler_slots[kMaxHandlers];
std::atomic<std::uint32_t> g_handler_count{0};

/// Self-sends from handler context deliver inline (no enqueue); the depth
/// cap bounds stack growth and guarantees handler chains that never go
/// idle still return to the scheduler loop.
constexpr int kMaxInlineDepth = 8;

// Message counters live in the metrics registry (trace/metrics.h): one
// cache-line-isolated slot per PE, written only by that PE's kernel thread
// via single-writer bumps — the same discipline the old private PeCounters
// had, now shared with every other instrumented layer. Readers sum slots.
using metrics::Counter;

/// Per-PE Message freelist, touched only by the owning PE's kernel thread.
/// A consumed message is adopted into the *consuming* PE's pool rather than
/// returned to its allocator, so recycling costs one vector push and no
/// cross-thread traffic; pools stay balanced because symmetric traffic
/// returns as many messages as it takes. The cap bounds memory under
/// one-way floods (excess messages are simply freed; the cap is
/// Config::pool_cap). Recycled messages keep their payload capacity, so
/// steady-state sends allocate nothing.
struct MsgPool {
  std::vector<Message*> cache;
};

/// Envelope lifecycle audit (PoolStats): every `new Message` / `delete` in
/// this file goes through create_message/destroy_message so Machine::run
/// can assert allocated == freed after the teardown drain. The books live
/// in the metrics registry (reset at run start, readable after run); the
/// teardown path runs on the joining thread, which the registry routes to
/// its shared slot automatically.
Message* create_message() {
  metrics::bump(Counter::kMsgsAllocated);
  return new Message();
}

void destroy_message(Message* m) {
  metrics::bump(Counter::kMsgsFreed);
  delete m;
}

/// Teardown-drain destruction: a message reclaimed from a queue or delay
/// stash after the machine stopped.
void drain_message(Message* m) {
  metrics::bump(Counter::kMsgsDrained);
  destroy_message(m);
}

/// A message whose delivery the chaos layer postponed: dispatch when the
/// owning PE's loop tick reaches `due`. Later arrivals with earlier dues
/// overtake it — exactly the cross-PE reorder the fault model wants.
struct Delayed {
  Message* m = nullptr;
  std::uint64_t due = 0;
};

struct Pe {
  int id = -1;
  IntrusiveMpscChannel<Message> queue;
  ult::Scheduler sched;
  ult::Thread* barrier_waiter = nullptr;
  std::uint64_t barrier_gen = 0;
  std::vector<ult::Thread*> quiescence_waiters;
  MsgPool pool;
  /// Set by detail::retain_message: the running dispatch skips releasing
  /// this envelope (nested inline dispatches save and restore it).
  Message* retained = nullptr;
  int inline_depth = 0;
  std::vector<Delayed> delayed;  // chaos delivery-delay stash
  std::uint64_t tick = 0;        // loop-iteration clock for `delayed`

  /// Everything still held here drains through the counted teardown path;
  /// Machine::run asserts the books balance right after the PEs are gone.
  ~Pe() {
    while (Message* m = queue.try_pop()) drain_message(m);
    for (const Delayed& d : delayed) drain_message(d.m);
    for (Message* m : pool.cache) destroy_message(m);
  }
};

struct MachineState {
  int npes = 0;
  /// Chaos delivery-delay active: consumer loops stash injected messages
  /// and the self-send inline bypass is off (inline delivery would let a
  /// self-send overtake a delayed earlier message).
  bool chaos_delay = false;
  /// FT hooks were installed before boot: loops test per-PE death flags
  /// and PE 0 runs the detector tick. Off ⇒ zero additional loads.
  bool ft_on = false;
  std::size_t pool_cap = 4096;
  std::vector<std::unique_ptr<Pe>> pes;
  std::atomic<int> mains_finished{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> qd_round_active{false};
  // ---- Multi-process topology (defaults describe a 1-process machine) ----
  // Process my_proc hosts PEs [local_first, local_first + ppn); only those
  // entries of `pes` are populated. `transport` is the wire (owned by
  // Machine::run); non-null also in loopback mode (nprocs == 1 with a wire
  // transport selected), where every cross-PE send goes over it.
  int nprocs = 1;
  int my_proc = 0;
  int ppn = 0;
  int local_first = 0;
  int local_npes = 0;
  transport::Transport* transport = nullptr;
  std::atomic<int> procs_done{0};
  // Mattern double-wave memory for quiescence (PE 0 only): the previous
  // round's accumulated send/deliver counts (multi-process) or its balanced
  // send count (one process). ~0 = no such round.
  std::uint64_t qd_prev_sent = ~0ull;
  std::uint64_t qd_prev_delivered = ~0ull;
  // Per-PE FT flags (allocated only when ft_on). `dead`: the PE's loop
  // stops dispatching and spin-sleeps; messages queue up for the revival
  // drain. `wipe_pending`: revive_pe was called — run the on_revive hook
  // on the PE's own thread before touching the backlog.
  std::unique_ptr<std::atomic<bool>[]> dead;
  std::unique_ptr<std::atomic<bool>[]> wipe_pending;
  // PE0-only barrier bookkeeping (touched exclusively from PE0's loop).
  std::unordered_map<std::uint64_t, int> barrier_counts;
  // ---- Process-tier fault tolerance (see DESIGN.md "Fault tolerance").
  // Armed (ft_respawn) when FT hooks are installed on a multi-process
  // machine; everything below is inert otherwise. ----
  bool ft_respawn = false;
  /// 0 for an original process; the respawn generation in a respawned
  /// incarnation (whose local PEs boot dead until recovery revives them).
  int respawn_gen = 0;
  int ctl_fd = -1;       ///< this process's end of its zygote channel
  pid_t zygote_pid = 0;  ///< process 0 only
  std::vector<pid_t> kids;  ///< process 0 only: the original children
  /// Parallel to `kids`; written by the comm thread's liveness poll, read
  /// by the final reap and by kill_proc (atomic: PE 0's escalation races
  /// the comm thread).
  std::unique_ptr<std::atomic<bool>[]> kids_reaped;
  /// Process 0, PE-0-thread only: which procs now run as respawned
  /// incarnations — kill routing (original children get a direct SIGKILL;
  /// respawns go through the zygote, which holds their pids).
  std::vector<bool> proc_respawned;
  std::uint64_t next_respawn_gen = 0;  ///< PE-0-thread only
  /// Detection mailboxes, comm thread → FT tick on PE 0 (-1 = empty).
  std::atomic<int> dead_proc_event{-1};
  std::atomic<int> respawn_done_event{-1};
  /// Quiescence drain mode (recovery): see h_qd_token.
  std::atomic<bool> qd_drain{false};
  /// Settled send-deliver deficit recorded by the last drain wave —
  /// messages lost with dead processes. Signed: a respawned process's
  /// counters restart at zero, so accumulated sends can trail deliveries.
  /// Exact-mode quiescence compares against this baseline (starts 0, the
  /// failure-free rule). PE-0-thread only.
  std::int64_t qd_comp = 0;
};

MachineState* g_machine = nullptr;
thread_local Pe* t_pe = nullptr;

// FT hooks, installed before Machine::run and captured into ft_on at boot.
FtMachineHooks g_ft_hooks;
bool g_ft_hooks_set = false;

// ---- Zygote control protocol (process-tier FT) ----
//
// Fixed 16-byte records over per-process SOCK_SEQPACKET pairs (record
// boundaries preserved; SCM_RIGHTS carries a stream fd when one rides
// along). proc-end[k] lives in machine process k; zyg-end[k] in the zygote.

enum CtlType : std::uint32_t {
  kCtlReqRespawn = 1,   ///< proc 0 → zygote: respawn proc (arg = generation)
  kCtlPeerSwap = 2,     ///< zygote → survivor: attach proc's fresh stream
  kCtlSwapDone = 3,     ///< survivor → zygote: swap ack
  kCtlRespawnDone = 4,  ///< zygote → proc 0: respawn sequence complete
  kCtlProcDeath = 5,    ///< zygote → proc 0: a respawned incarnation died
  kCtlShutdown = 6,     ///< proc 0 → zygote: reap grandchildren and exit
  kCtlReqKill = 7,      ///< proc 0 → zygote: SIGKILL a respawned incarnation
};

struct CtlRec {
  std::uint32_t type = 0;
  std::int32_t proc = -1;
  std::uint64_t arg = 0;
};
static_assert(sizeof(CtlRec) == 16, "ctl record layout must be fixed");

void ctl_send(int fd, const CtlRec& rec, int ship_fd = -1) {
  msghdr mh{};
  iovec iov{const_cast<CtlRec*>(&rec), sizeof rec};
  mh.msg_iov = &iov;
  mh.msg_iovlen = 1;
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  if (ship_fd >= 0) {
    std::memset(cbuf, 0, sizeof cbuf);
    mh.msg_control = cbuf;
    mh.msg_controllen = sizeof cbuf;
    cmsghdr* cm = CMSG_FIRSTHDR(&mh);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &ship_fd, sizeof(int));
  }
  for (;;) {
    const ssize_t w = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (w == static_cast<ssize_t>(sizeof rec)) return;
    if (w < 0 && errno == EINTR) continue;
    MFC_CHECK_MSG(false, "machine ctl channel send failed");
  }
}

/// Nonblocking receive of one ctl record; false when none is ready (or the
/// peer closed). *ship_fd gets the SCM_RIGHTS fd when one rode along.
bool ctl_recv(int fd, CtlRec* rec, int* ship_fd) {
  msghdr mh{};
  iovec iov{rec, sizeof *rec};
  mh.msg_iov = &iov;
  mh.msg_iovlen = 1;
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  mh.msg_control = cbuf;
  mh.msg_controllen = sizeof cbuf;
  if (ship_fd != nullptr) *ship_fd = -1;
  for (;;) {
    const ssize_t r = ::recvmsg(fd, &mh, MSG_DONTWAIT | MSG_CMSG_CLOEXEC);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (r == 0) return false;  // peer closed
    MFC_CHECK_MSG(r == static_cast<ssize_t>(sizeof *rec),
                  "machine ctl channel: short read");
    break;
  }
  for (cmsghdr* cm = CMSG_FIRSTHDR(&mh); cm != nullptr;
       cm = CMSG_NXTHDR(&mh, cm)) {
    if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_RIGHTS) continue;
    int got = -1;
    std::memcpy(&got, CMSG_DATA(cm), sizeof(int));
    if (ship_fd != nullptr && *ship_fd < 0) {
      *ship_fd = got;
    } else {
      ::close(got);
    }
  }
  return true;
}

struct BarrierMsg {
  std::uint64_t gen = 0;
  void pup(pup::Er& p) { p | gen; }
};

HandlerId h_barrier_arrive = 0;
HandlerId h_barrier_release = 0;
HandlerId h_qd_start = 0;
HandlerId h_qd_token = 0;
HandlerId h_qd_release = 0;
HandlerId h_iso_release = 0;
HandlerId h_iso_claim = 0;
HandlerId h_clock_ping = 0;
HandlerId h_clock_reply = 0;
HandlerId h_clock_set = 0;

// ---- Trace clock handshake (multi-process runs with tracing on) ----
//
// Every process timestamps its trace records against CLOCK_MONOTONIC, which
// forked same-host processes share — but the merge subtracts a measured
// per-process skew anyway, so the trace format stays honest if a machine
// layer ever spans real hosts. PE 0 runs one NTP-style exchange per remote
// process over the ordinary message path (the shm control slot is strictly
// SPSC, so the handshake cannot ride a new wire frame kind): ping carries
// t0, the remote echoes its receive time tr, and PE 0 ships back
// skew = tr - (t0 + t1)/2, which the remote stores into its trace session
// for the part header. Best effort: on a shared clock the truth is ~0, so
// queueing noise only nudges track alignment, never correctness.

struct ClockPing {
  std::int32_t proc = 0;
  std::int64_t t0 = 0;
  void pup(pup::Er& p) { p | proc | t0; }
};

struct ClockReply {
  std::int32_t proc = 0;
  std::int64_t t0 = 0;
  std::int64_t tr = 0;
  void pup(pup::Er& p) { p | proc | t0 | tr; }
};

struct ClockSet {
  std::int64_t skew = 0;
  void pup(pup::Er& p) { p | skew; }
};

std::int64_t mono_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct QdToken {
  std::uint64_t app_sent_at_start = 0;
  /// Multi-process: per-process app counts accumulated as the token passes
  /// each process's first PE (counts are process-local metrics, so the
  /// token has to collect them in place of PE 0 reading globals).
  std::uint64_t acc_sent = 0;
  std::uint64_t acc_delivered = 0;
  std::int32_t hops = 0;
  std::uint8_t all_idle = 1;
  /// Drain mode only: ANDs one transport->quiescent() sample per process —
  /// wire bytes in flight forbid a quiet verdict even though the lossy
  /// counts can no longer prove their absence.
  std::uint8_t xport_idle = 1;
  /// Round mode, stamped at qd_start_round: 1 = drain (recovery settle
  /// wave), 0 = exact. Travels in the token because the drain flag lives
  /// in PE 0's process only.
  std::uint8_t drain = 0;
  void pup(pup::Er& p) {
    p | app_sent_at_start | acc_sent | acc_delivered | hops | all_idle |
        xport_idle | drain;
  }
};

/// True when `pe` lives in this process (always true on 1-process machines).
bool pe_local(int pe) { return pe / g_machine->ppn == g_machine->my_proc; }

// Registry reads: per-PE slots plus the shared slot (sends from non-PE
// threads land there, which is what keeps the PE slots single-writer).
std::uint64_t total_sent() { return metrics::total(Counter::kMsgsSent); }
std::uint64_t total_delivered() {
  return metrics::total(Counter::kMsgsDelivered);
}
std::uint64_t total_qd_sent() { return metrics::total(Counter::kQdSent); }
std::uint64_t total_qd_delivered() {
  return metrics::total(Counter::kQdDelivered);
}

// "Application" traffic excludes both QD tokens and FT protocol messages
// (heartbeats, checkpoint shipments, recovery control): each is counted
// sent/delivered in its own pair so quiescence judges only the workload.
std::uint64_t app_sent() {
  return total_sent() - total_qd_sent() -
         metrics::total(Counter::kFtSent);
}
std::uint64_t app_delivered() {
  return total_delivered() - total_qd_delivered() -
         metrics::total(Counter::kFtDelivered);
}

/// QD system send: counted separately so tokens don't disturb the counts
/// they are observing.
void qd_send(int pe, HandlerId handler, const std::vector<char>& payload) {
  MFC_CHECK_MSG(t_pe != nullptr, "QD traffic originates on PEs");
  metrics::bump(Counter::kQdSent);
  send(pe, handler, payload);
}

void qd_start_round() {
  QdToken token;
  token.app_sent_at_start = app_sent();
  token.drain = g_machine->qd_drain.load(std::memory_order_acquire) ? 1 : 0;
  qd_send(0, h_qd_token, pup::to_bytes(token));
}

HandlerFn* handler_lookup(HandlerId id) {
  MFC_CHECK_MSG(id < kMaxHandlers, "unknown handler id");
  HandlerFn* fn = g_handler_slots[id].load(std::memory_order_acquire);
  MFC_CHECK_MSG(fn != nullptr, "unknown handler id");
  return fn;
}

void release_message(Message* m) {
  if (m->pool_pe < 0 || t_pe == nullptr ||
      t_pe->pool.cache.size() >= g_machine->pool_cap) {
    destroy_message(m);
    return;
  }
  m->pool_pe = t_pe->id;
  t_pe->pool.cache.push_back(m);
}

/// An envelope from `pe`'s freelist, or a fresh one that adopts into it.
/// Owning PE thread only.
Message* pool_take(Pe* pe) {
  MsgPool& pool = pe->pool;
  if (!pool.cache.empty()) {
    Message* m = pool.cache.back();
    pool.cache.pop_back();
    metrics::bump(Counter::kMsgsRecycled);
    return m;
  }
  Message* m = create_message();
  m->pool_pe = pe->id;
  return m;
}

Message* pool_acquire(Pe* pe) {
  // Chaos pool-miss injection: skip the freelist and take a one-shot heap
  // envelope (pool_pe = -1 so release frees instead of recycling) —
  // models allocator pressure without actually failing the send.
  if (!pe->pool.cache.empty() &&
      chaos::should_inject(chaos::Point::kPoolAcquire)) {
    return create_message();
  }
  return pool_take(pe);
}

/// Fast-path delivery: one acquire load for the handler, no lock. The two
/// probe edges count the delivery and, with the latency histograms armed
/// (MFC_STATS), settle the message's enqueue stamp into queue-wait and
/// bracket the handler into service time — one clock read per edge.
void dispatch(Message* m) {
  HandlerFn* fn = handler_lookup(m->handler);
  const HandlerId h = m->handler;
  const std::uint64_t t0 = probe::emit(
      probe::Ev::kHandlerBegin, m->trace_flow, h,
      static_cast<std::uint32_t>(m->payload.size()),
      static_cast<std::int16_t>(m->src_pe), 0, m->stamp);
  Pe* const pe = t_pe;
  Message* const outer = pe->retained;
  pe->retained = nullptr;
  (*fn)(std::move(*m));
  probe::emit(probe::Ev::kHandlerEnd, 0, h, 0, -1, 0, t0);
  // A retained envelope may already sit in another PE's queue: never touch
  // it here.
  const bool kept = pe->retained == m;
  pe->retained = outer;
  if (!kept) release_message(m);
}

/// Dispatches every stashed message whose due tick has passed, in stash
/// order among equals — the reorder comes from unequal injected delays.
bool release_due_delayed(Pe* pe) {
  bool any = false;
  for (std::size_t i = 0; i < pe->delayed.size();) {
    if (pe->delayed[i].due <= pe->tick) {
      Message* m = pe->delayed[i].m;
      pe->delayed.erase(pe->delayed.begin() +
                        static_cast<std::ptrdiff_t>(i));
      dispatch(m);
      any = true;
    } else {
      ++i;
    }
  }
  return any;
}

/// Local delivery tail shared by send_message and send_spans: the self-send
/// inline bypass (handler/scheduler context, empty consumer queue, bounded
/// depth) or a queue push.
void enqueue_or_inline(int dest_pe, Message* m) {
  Pe& dest = *g_machine->pes[static_cast<std::size_t>(dest_pe)];
  Pe* self = t_pe;
  if (!g_machine->chaos_delay && self != nullptr && dest_pe == self->id &&
      !self->sched.in_thread() && self->inline_depth < kMaxInlineDepth &&
      self->queue.consumer_empty()) {
    ++self->inline_depth;
    dispatch(m);
    --self->inline_depth;
    return;
  }
  dest.queue.push(m);
}

void pe_loop(Pe* pe, const std::function<void(int)>& entry) {
  t_pe = pe;
  ult::Scheduler::set_current(&pe->sched);
  // Bind this kernel thread to its PE's share of every probe sink
  // (counters, histograms, trace ring, flight track), plus the PE's chaos
  // decision streams and — in deterministic-schedule mode — the
  // scheduler's seeded choice RNG.
  probe::bind_pe(pe->id);
  chaos::bind_stream(pe->id);
  pe->sched.set_choice_rng(chaos::sched_choice_rng());

  auto* main_thread = new ult::StandardThread(
      [pe, &entry] {
        // Before any application traffic: PE 0 measures each remote
        // process's clock skew so multi-process trace parts merge onto one
        // timeline (quiet queues give the cleanest RTT estimate).
        if (pe->id == 0 && g_machine->nprocs > 1 && trace::active()) {
          for (int p = 1; p < g_machine->nprocs; ++p) {
            ClockPing ping;
            ping.proc = p;
            ping.t0 = mono_now_ns();
            send_value(p * g_machine->ppn, h_clock_ping, ping);
          }
        }
        entry(pe->id);
        if (g_machine->mains_finished.fetch_add(1) + 1 ==
            g_machine->local_npes) {
          if (g_machine->nprocs == 1) {
            g_machine->stop.store(true);
            for (auto& other : g_machine->pes) other->queue.wake();
            if (g_machine->transport) g_machine->transport->stop_local();
          } else {
            // Multi-process: every local main is done. Tell process 0; the
            // stop order comes back through the transport once every
            // process has reported (see the on_proc_done hook).
            g_machine->transport->send_proc_done(pe->id);
          }
        }
      },
      512 * 1024);
  main_thread->set_delete_on_exit(true);
  pe->sched.ready(main_thread);

  const bool delay_on = g_machine->chaos_delay;
  const bool ft_on = g_machine->ft_on;
  transport::Transport* const wire =
      g_machine->transport != nullptr && g_machine->transport->pes_drain()
          ? g_machine->transport
          : nullptr;
  // Park predicate extension: frames waiting in this process's inbound
  // shm rings (their senders wake the destination PE, or the doorbell).
  // Without such a wire the plain park path runs.
  const auto wire_pending = [wire] { return wire->inbound_pending(); };
  const std::uint64_t max_ticks = delay_on ? chaos::config().max_delay_ticks : 0;
  while (!g_machine->stop.load(std::memory_order_acquire)) {
    if (ft_on) {
      // Dead PE: stop dispatching and running threads; messages keep
      // queueing and drain after revival. Spin-sleep (no park) so the
      // revival flag is observed without a wake protocol.
      if (g_machine->dead[pe->id].load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      // Just revived: wipe stale state on this PE's own thread BEFORE
      // the death-window backlog dispatches into it.
      if (g_machine->wipe_pending[pe->id].exchange(
              false, std::memory_order_acq_rel)) {
        if (g_ft_hooks.on_revive) g_ft_hooks.on_revive(pe->id);
      }
      // PE 0 is the failure detector: heartbeats + timeout checks.
      if (pe->id == 0 && g_ft_hooks.pe0_tick) g_ft_hooks.pe0_tick();
    }
    bool progress = false;
    if (delay_on) {
      ++pe->tick;
      if (release_due_delayed(pe)) progress = true;
    }
    // Poll the wire the way Converse polls its network queue: frames for
    // any local PE move into their queues (this one's included) here.
    if (wire != nullptr && wire->drain_inbound()) progress = true;
    while (Message* m = pe->queue.try_pop()) {
      if (delay_on && chaos::should_inject(chaos::Point::kDelivery)) {
        // Stash instead of dispatching; a later arrival with a shorter
        // injected delay overtakes this one. QD stays honest while the
        // stash is non-empty: the message counts as sent but not yet
        // delivered, so the machine cannot report quiescent around it.
        const std::uint64_t d =
            1 + chaos::draw(chaos::Point::kDelivery, max_ticks);
        pe->delayed.push_back({m, pe->tick + d});
      } else {
        dispatch(m);
      }
      progress = true;
      // A handler may have killed this very PE (self-kill at a chaos
      // injection point): stop mid-batch, leaving the rest queued.
      if (ft_on && g_machine->dead[pe->id].load(std::memory_order_relaxed)) {
        break;
      }
    }
    if (ft_on && g_machine->dead[pe->id].load(std::memory_order_relaxed)) {
      continue;  // no run_one/park for the freshly dead
    }
    if (pe->sched.run_one()) progress = true;
    if (!progress) {
      // A non-empty stash forbids parking — only loop ticks age it out.
      if (!pe->delayed.empty()) continue;
      // With FT on, PE 0 parks with a deadline so detector ticks keep
      // firing on an otherwise idle machine.
      if (ft_on && pe->id == 0) {
        Message* m = wire != nullptr
                         ? pe->queue.pop_wait_for(200, wire_pending)
                         : pe->queue.pop_wait_for(200);
        if (m != nullptr) dispatch(m);
        continue;
      }
      // Idle: bounded spin then park until a message arrives or shutdown
      // wakes us. On delivery, re-enter the drain loop immediately — the
      // batch behind this message is typically non-empty.
      Message* m = wire != nullptr ? pe->queue.pop_wait(wire_pending)
                                   : pe->queue.pop_wait();
      if (m != nullptr) {
        dispatch(m);
        continue;
      }
    }
  }

  pe->sched.set_choice_rng(nullptr);
  chaos::unbind_stream();
  probe::unbind_pe();
  ult::Scheduler::set_current(nullptr);
  t_pe = nullptr;
}

void register_builtin_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    h_barrier_arrive = register_handler([](Message&& m) {
      // Runs on PE0: count arrivals per generation; release when complete.
      auto msg = m.as<BarrierMsg>();
      int& count = g_machine->barrier_counts[msg.gen];
      if (++count == g_machine->npes) {
        g_machine->barrier_counts.erase(msg.gen);
        std::vector<char> payload = pup::to_bytes(msg);
        broadcast(h_barrier_release, payload);
      }
    });
    h_barrier_release = register_handler([](Message&& m) {
      auto msg = m.as<BarrierMsg>();
      Pe* pe = t_pe;
      MFC_CHECK_MSG(pe->barrier_waiter != nullptr && pe->barrier_gen == msg.gen,
                    "barrier release without waiter");
      ult::Thread* waiter = pe->barrier_waiter;
      pe->barrier_waiter = nullptr;
      pe->sched.ready(waiter);
    });
    // Quiescence detection: Mattern-style counting token ring. A token
    // visits every PE in order; if every PE was locally idle during its
    // visit AND the application send/deliver counts were equal and
    // unchanged across two consecutive rounds, the machine is quiet.
    h_qd_start = register_handler([](Message&&) {
      metrics::bump(Counter::kQdDelivered);
      MFC_CHECK(t_pe->id == 0);
      if (!g_machine->qd_round_active.exchange(true)) qd_start_round();
    });
    h_qd_token = register_handler([](Message&& m) {
      metrics::bump(Counter::kQdDelivered);
      auto token = m.as<QdToken>();
      Pe* pe = t_pe;
      if (token.hops == g_machine->npes) {
        // The token visited every PE and came back to PE 0: decide.
        MFC_CHECK(pe->id == 0);
        bool quiet;
        if (g_machine->nprocs > 1) {
          // Counts are process-local, so PE 0 cannot read machine totals;
          // the token accumulated one reading per process instead. Quiet
          // needs balance AND two consecutive identical rounds (Mattern's
          // double wave) — a single balanced reading can be stale.
          const bool stable =
              token.acc_sent == g_machine->qd_prev_sent &&
              token.acc_delivered == g_machine->qd_prev_delivered;
          const std::int64_t diff =
              static_cast<std::int64_t>(token.acc_sent) -
              static_cast<std::int64_t>(token.acc_delivered);
          if (token.drain != 0) {
            // Drain mode (process recovery): messages died with the killed
            // process, so balance is unreachable. Quiet = every PE idle,
            // every transport drained, counts frozen across two waves; the
            // settled deficit becomes the baseline exact rounds compare
            // against from now on.
            quiet = token.all_idle != 0 && token.xport_idle != 0 && stable;
            if (quiet) g_machine->qd_comp = diff;
          } else {
            // Exact mode: balance up to the recorded loss baseline
            // (qd_comp starts 0, i.e. the failure-free rule).
            quiet =
                token.all_idle != 0 && diff == g_machine->qd_comp && stable;
          }
          g_machine->qd_prev_sent = token.acc_sent;
          g_machine->qd_prev_delivered = token.acc_delivered;
        } else {
          // Single process: one balanced wave is not enough either. A
          // message in flight at the round's start can be dispatched after
          // the token passed its PE, counted delivered before its handler
          // (or a thread the handler readied) sends. Quiet needs two
          // consecutive balanced rounds at the same count; the next round's
          // visit to that PE sees the send or the ready thread. Deliveries
          // are read before sends, so a dispatch between the two reads
          // cannot balance a count that was short when it was read.
          const std::uint64_t delivered = app_delivered();
          const std::uint64_t sent = app_sent();
          const bool balanced = token.all_idle != 0 &&
                                sent == token.app_sent_at_start &&
                                delivered == sent;
          quiet = balanced && sent == g_machine->qd_prev_sent;
          g_machine->qd_prev_sent = balanced ? sent : ~0ull;
        }
        if (quiet) {
          g_machine->qd_prev_sent = ~0ull;
          g_machine->qd_prev_delivered = ~0ull;
          g_machine->qd_round_active.store(false);
          for (int p = 0; p < g_machine->npes; ++p) {
            qd_send(p, h_qd_release, {});
          }
        } else {
          qd_start_round();  // something moved: try again
        }
        return;
      }
      if (pe->sched.ready_count() > 0) token.all_idle = 0;
      if (g_machine->nprocs > 1 && pe->id % g_machine->ppn == 0) {
        token.acc_sent += app_sent();
        token.acc_delivered += app_delivered();
        // Drain rounds only: sampling the wire is advisory (and the socket
        // sample takes a lock), so exact rounds never pay for it — and the
        // tsan legs, which are loopback and never drain, never race it.
        if (token.drain != 0 && g_machine->transport != nullptr &&
            !g_machine->transport->quiescent()) {
          token.xport_idle = 0;
        }
      }
      token.hops += 1;
      qd_send((pe->id + 1) % g_machine->npes, h_qd_token,
              pup::to_bytes(token));
    });
    h_qd_release = register_handler([](Message&&) {
      metrics::bump(Counter::kQdDelivered);
      Pe* pe = t_pe;
      for (ult::Thread* t : pe->quiescence_waiters) pe->sched.ready(t);
      pe->quiescence_waiters.clear();
    });
    // Cross-process isomalloc lease: a slot freed away from its birth
    // process ships its identity home; the birth PE clears the `used` bit
    // (the releasing process already evacuated the pages on its side).
    h_iso_release = register_handler([](Message&& m) {
      auto id = m.as<iso::SlotId>();
      iso::Region::instance().free_remote(id);
    });
    // Lease reassertion after a process respawn: restored threads replay
    // their slot ids to the birth process so its fresh (zygote boot-time)
    // bitmap copy re-learns the allocations. FT-counted: recovery traffic
    // must not disturb the quiescence the recovery itself waits for.
    h_iso_claim = register_handler([](Message&& m) {
      metrics::bump(Counter::kFtDelivered);
      iso::Region::instance().reassert(m.as<iso::SlotId>());
    });
    // Trace clock handshake (see the comment block above ClockPing).
    h_clock_ping = register_handler([](Message&& m) {
      auto ping = m.as<ClockPing>();
      ClockReply r;
      r.proc = ping.proc;
      r.t0 = ping.t0;
      r.tr = mono_now_ns();
      send_value(0, h_clock_reply, r);
    });
    h_clock_reply = register_handler([](Message&& m) {
      auto r = m.as<ClockReply>();
      const std::int64_t t1 = mono_now_ns();
      ClockSet set;
      set.skew = r.tr - (r.t0 + t1) / 2;
      send_value(r.proc * g_machine->ppn, h_clock_set, set);
    });
    h_clock_set = register_handler([](Message&& m) {
      trace::set_clock_skew(m.as<ClockSet>().skew);
    });
  });
}

// ---- Per-process machine body ----
//
// Machine::run's post-fork half, split out so the respawn zygote can run
// the identical body for a replacement incarnation. Non-zero processes
// _Exit(0) inside; process 0 returns (with the transport joined and
// g_machine still alive) for the parent-side teardown.

struct ProcRun {
  const Machine::Config* config = nullptr;
  const std::function<void(int)>* entry = nullptr;
  std::unique_ptr<transport::Transport>* transport = nullptr;
  int my_proc = 0;
  int respawn_gen = 0;  ///< > 0 marks a respawned incarnation
  int ctl_fd = -1;      ///< this process's zygote channel (-1 = no zygote)
  pid_t zygote_pid = 0;
  std::vector<pid_t> kids;  ///< process 0 only
  bool owns_chaos = false;
  probe::Owned owned_probe;
};

void run_machine_process(ProcRun ctx) {
  const Machine::Config& config = *ctx.config;
  const std::function<void(int)>& entry = *ctx.entry;
  std::unique_ptr<transport::Transport>& transport = *ctx.transport;
  const int my_proc = ctx.my_proc;

  // ---- Per-process machine state (post-fork). ----
  const int ppn = config.npes / config.nprocs;
  g_machine = new MachineState();
  g_machine->npes = config.npes;
  g_machine->chaos_delay =
      chaos::enabled() && chaos::config().delivery_delay > 0.0;
  g_machine->ft_on = g_ft_hooks_set;
  g_machine->nprocs = config.nprocs;
  g_machine->my_proc = my_proc;
  g_machine->ppn = ppn;
  g_machine->local_first = my_proc * ppn;
  g_machine->local_npes = ppn;
  g_machine->transport = transport.get();
  g_machine->ft_respawn = g_ft_hooks_set && config.nprocs > 1;
  g_machine->respawn_gen = ctx.respawn_gen;
  g_machine->ctl_fd = ctx.ctl_fd;
  g_machine->zygote_pid = ctx.zygote_pid;
  g_machine->kids = std::move(ctx.kids);
  if (!g_machine->kids.empty()) {
    g_machine->kids_reaped =
        std::make_unique<std::atomic<bool>[]>(g_machine->kids.size());
  }
  g_machine->proc_respawned.assign(static_cast<std::size_t>(config.nprocs),
                                   false);
  // Stamp observability provenance with the post-fork identity: metrics
  // snapshots record which process they came from, trace parts record the
  // local PE range they own, the flight recorder names its dump file.
  probe::set_proc(my_proc, config.nprocs, g_machine->local_first,
                  g_machine->local_npes);
  if (g_machine->ft_on) {
    g_machine->dead =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(config.npes));
    g_machine->wipe_pending =
        std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(config.npes));
    if (g_machine->respawn_gen > 0) {
      // A respawned incarnation boots with every local PE dead: the mains
      // park (the application's rebirth branch) and the loops spin-sleep
      // until recovery revives and refills them from the remote buddies.
      for (int i = g_machine->local_first; i < g_machine->local_first + ppn;
           ++i) {
        g_machine->dead[i].store(true, std::memory_order_relaxed);
      }
    }
  }
  g_machine->pool_cap = config.pool_cap;
  g_machine->pes.resize(static_cast<std::size_t>(config.npes));
  for (int i = g_machine->local_first;
       i < g_machine->local_first + g_machine->local_npes; ++i) {
    auto pe = std::make_unique<Pe>();
    pe->id = i;
    g_machine->pes[static_cast<std::size_t>(i)] = std::move(pe);
  }

  if (transport) {
    transport::Hooks hooks;
    hooks.alloc = [](const wire::Header& h, std::uint64_t total_len) {
      // The destination PE draining its own frame takes a pooled envelope
      // (no chaos draw: who drains is timing, and the PE's injection
      // stream must not depend on it). Any other drainer allocates one the
      // destination PE adopts into its pool on release.
      Message* m;
      if (t_pe != nullptr && t_pe->id == h.dest_pe) {
        m = pool_take(t_pe);
      } else {
        m = create_message();
        m->pool_pe = h.dest_pe;
      }
      m->handler = h.handler;
      m->src_pe = h.src_pe;
      m->dest_pe = h.dest_pe;
      m->trace_flow = h.trace_flow;
      m->payload.resize(static_cast<std::size_t>(total_len));
      return m;
    };
    hooks.enqueue = [](Message* m) {
      Pe* dest = g_machine->pes[static_cast<std::size_t>(m->dest_pe)].get();
      MFC_CHECK_MSG(dest != nullptr, "wire delivery to a non-local PE");
      // Queue-wait for wire arrivals measures local-queue residency only
      // (stamps never cross processes; tsc domains may differ).
      m->stamp = hist::on() ? rdtsc() : 0;
      dest->queue.push(m);
    };
    hooks.drop = [](Message* m) { drain_message(m); };
    hooks.wake_pe = [](int pe) {
      g_machine->pes[static_cast<std::size_t>(pe)]->queue.unpark_if_parked();
    };
    hooks.on_proc_done = [] {
      if (g_machine->procs_done.fetch_add(1) + 1 == g_machine->nprocs) {
        g_machine->transport->broadcast_stop();
      }
    };
    hooks.on_stop = [] {
      g_machine->stop.store(true);
      for (auto& pe : g_machine->pes) {
        if (pe) pe->queue.wake();
      }
      g_machine->transport->stop_local();
    };
    hooks.tolerate_peer_loss = g_machine->ft_respawn;
    if (g_machine->ft_on) {
      // Machine-level FT control frames (kill/revive for a local PE): the
      // thread draining the wire (the comm thread, or a PE holding the shm
      // consumer token) flips the same flags kill_pe/revive_pe flip locally.
      hooks.ft_ctl = [](const wire::Header& h) {
        const int pe = h.dest_pe;
        MFC_CHECK(pe >= 0 && pe < g_machine->npes && pe_local(pe));
        if (h.msg_id == 0) {
          g_machine->dead[pe].store(true, std::memory_order_release);
          g_machine->pes[static_cast<std::size_t>(pe)]->queue.wake();
        } else {
          g_machine->wipe_pending[pe].store(true, std::memory_order_release);
          g_machine->dead[pe].store(false, std::memory_order_release);
        }
      };
    }
    if (!g_machine->kids.empty() || g_machine->ctl_fd >= 0) {
      // Comm-thread policing. Process 0 reaps dead children: without the
      // process tier armed a dead child is an immediate crash (it would
      // hang the stop protocol); with it the death becomes a detection
      // event for the FT tick. Every process additionally drains its
      // zygote channel — survivors install respawned peers' fresh streams
      // here. The hook runs on the comm thread; the shm transport calls it
      // holding the consumer token, which attach_peer relies on.
      hooks.idle = [] {
        MachineState* st = g_machine;
        for (std::size_t k = 0; k < st->kids.size(); ++k) {
          if (st->kids_reaped[k].load(std::memory_order_relaxed)) continue;
          int status = 0;
          const pid_t r = waitpid(st->kids[k], &status, WNOHANG);
          if (r != st->kids[k]) continue;
          st->kids_reaped[k].store(true, std::memory_order_release);
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
          MFC_CHECK_MSG(st->ft_respawn, "machine child process died");
          const int proc = static_cast<int>(k) + 1;
          probe::emit(probe::Ev::kFtProcDown, 0,
                      static_cast<std::uint32_t>(proc), 0,
                      static_cast<std::int16_t>(proc * st->ppn));
          st->dead_proc_event.store(proc, std::memory_order_release);
        }
        if (st->ctl_fd < 0) return;
        CtlRec rec;
        int fd = -1;
        while (ctl_recv(st->ctl_fd, &rec, &fd)) {
          switch (rec.type) {
            case kCtlPeerSwap:
              // A dead peer was respawned: swap to its fresh stream and
              // ack so the zygote can report the respawn complete.
              st->transport->attach_peer(rec.proc, fd, rec.arg);
              ctl_send(st->ctl_fd,
                       CtlRec{kCtlSwapDone, rec.proc, rec.arg});
              break;
            case kCtlRespawnDone:
              probe::emit(probe::Ev::kFtProcRespawn, rec.arg,
                          static_cast<std::uint32_t>(rec.proc));
              st->respawn_done_event.store(rec.proc,
                                           std::memory_order_release);
              break;
            case kCtlProcDeath:
              // A respawned incarnation died (only the zygote, its parent,
              // can waitpid it). Same detection event as a child death.
              probe::emit(probe::Ev::kFtProcDown, 0,
                          static_cast<std::uint32_t>(rec.proc), 0,
                          static_cast<std::int16_t>(rec.proc * st->ppn));
              st->dead_proc_event.store(rec.proc, std::memory_order_release);
              break;
            default:
              MFC_CHECK_MSG(false,
                            "unexpected record on the machine ctl channel");
          }
          fd = -1;
        }
      };
    }
    transport->start(my_proc, std::move(hooks));
  }

  // Cross-process slot leasing: release() must clear the `used` bit in the
  // slot's birth process (the one whose strip bitmap tracks it), so
  // non-local releases evacuate locally then forward a free order.
  if (config.nprocs > 1) {
    iso::Region::set_lease(
        [](int pe) { return pe_local(pe); },
        [](iso::SlotId id) { send_value(id.pe, h_iso_release, id); });
  }

  // Wedge watchdog (MFC_WEDGE_MS=<n>, off by default): a per-process
  // monitor thread that fires the flight recorder if the local message
  // counters sit still for n ms while the machine is supposedly running.
  // Each process polices itself, so a machine-wide wedge produces one
  // black-box dump per process without any cross-process coordination.
  std::atomic<bool> wedge_stop{false};
  std::thread wedge;
  long wedge_ms = 0;
  if (const char* env = std::getenv("MFC_WEDGE_MS");
      env != nullptr && *env != '\0') {
    wedge_ms = std::strtol(env, nullptr, 10);
  }
  if (wedge_ms > 0) {
    wedge = std::thread([&wedge_stop, wedge_ms] {
      const auto poll = std::chrono::milliseconds(
          wedge_ms / 4 > 50 ? 50 : (wedge_ms / 4 > 0 ? wedge_ms / 4 : 1));
      std::uint64_t last = ~0ull;
      auto last_move = std::chrono::steady_clock::now();
      while (!wedge_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll);
        const std::uint64_t cur = total_sent() + total_delivered();
        const auto now = std::chrono::steady_clock::now();
        if (cur != last) {
          last = cur;
          last_move = now;
        } else if (now - last_move >= std::chrono::milliseconds(wedge_ms)) {
          trace::flight::dump("wedge");
          return;
        }
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(g_machine->local_npes));
  for (int i = g_machine->local_first;
       i < g_machine->local_first + g_machine->local_npes; ++i) {
    threads.emplace_back(pe_loop,
                         g_machine->pes[static_cast<std::size_t>(i)].get(),
                         std::cref(entry));
  }
  for (auto& t : threads) t.join();

  if (wedge.joinable()) {
    wedge_stop.store(true, std::memory_order_release);
    wedge.join();
  }

  if (transport) {
    transport->stop_local();
    transport->join();
  }
  if (config.nprocs > 1) iso::Region::clear_lease();

  if (my_proc != 0) {
    // Child teardown mirrors the parent's but ends in _Exit: the child must
    // not run atexit handlers or static destructors for state the parent
    // still owns. Books are checked per-process (the pes vector only drains
    // local envelopes).
    delete g_machine;
    g_machine = nullptr;
    if (ctx.owns_chaos) chaos::uninstall();
    probe::finish(ctx.owned_probe);
    MFC_CHECK_MSG(metrics::total(metrics::Counter::kMsgsAllocated) ==
                      metrics::total(metrics::Counter::kMsgsFreed),
                  "message envelopes leaked at machine shutdown (child)");
    transport.reset();
    std::_Exit(0);
  }
}

// ---- Respawn zygote ----
//
// A process forked from the pristine pre-fork single-threaded image,
// holding copies of every shared resource (shm segment, socket matrix, iso
// reservation, handler table, installed FT hooks, armed trace/flight
// state). A SIGKILLed worker cannot be re-forked from any live process —
// they all carry PE threads and divergent state — so the zygote parks on
// the clean image and forks replacements from it on request. It is also
// the only place that can refresh a dead process's wire resources *before*
// the replacement exists, and it ships the survivor-side stream ends over
// SCM_RIGHTS.

void zygote_respawn(const Machine::Config& config,
                    const std::function<void(int)>& entry,
                    std::unique_ptr<transport::Transport>& transport,
                    const std::vector<int>& ctl_zyg,
                    const std::vector<int>& ctl_proc, bool owns_chaos,
                    const probe::Owned& owned_probe, const CtlRec& req,
                    std::vector<pid_t>& grandkid) {
  const int nprocs = config.nprocs;
  const int k = req.proc;
  MFC_CHECK(k > 0 && k < nprocs);
  // Fresh wire resources for the dead process, created before the fork so
  // the replacement inherits them. The survivor-side fds stay owned by the
  // transport (its matrix rows), not by this call.
  std::vector<int> peer_fds(static_cast<std::size_t>(nprocs), -1);
  transport->respawn_refresh(k, peer_fds);
  // Fork the replacement: seeded exponential backoff on transient failure
  // (the same shape as the proc transport's respawn path).
  pid_t pid = -1;
  for (std::uint64_t tries = 0;; ++tries) {
    pid = fork();
    if (pid >= 0) break;
    MFC_CHECK_MSG(tries < 64, "respawn fork failed permanently");
    const std::uint64_t cap = std::min<std::uint64_t>(
        50ULL << (tries < 6 ? tries : 6), 2000);
    std::uint64_t us = cap;
    if (chaos::enabled()) {
      us = 1 + chaos::keyed_draw(chaos::Point::kProcKill, tries ^ req.arg,
                                 cap);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  if (pid == 0) {
    // The respawned incarnation: shed every zygote-only fd, then run the
    // standard per-process machine body as proc k. transport->start()
    // closes the other processes' socket rows (including the freshly
    // shipped survivor ends), exactly as an original child's did.
    for (int q = 0; q < nprocs; ++q) {
      ::close(ctl_zyg[static_cast<std::size_t>(q)]);
      if (q != k) ::close(ctl_proc[static_cast<std::size_t>(q)]);
    }
    ProcRun ctx;
    ctx.config = &config;
    ctx.entry = &entry;
    ctx.transport = &transport;
    ctx.my_proc = k;
    ctx.respawn_gen = static_cast<int>(req.arg);
    ctx.ctl_fd = ctl_proc[static_cast<std::size_t>(k)];
    ctx.owns_chaos = owns_chaos;
    ctx.owned_probe = owned_probe;
    run_machine_process(std::move(ctx));
    std::_Exit(0);  // not reached: non-zero procs exit inside
  }
  grandkid[static_cast<std::size_t>(k)] = pid;
  // Survivors swap to the fresh streams before process 0 learns the
  // respawn completed, so recovery's first revive frame already rides the
  // new wire. Collect every ack before reporting.
  for (int j = 0; j < nprocs; ++j) {
    if (j == k) continue;
    ctl_send(ctl_zyg[static_cast<std::size_t>(j)],
             CtlRec{kCtlPeerSwap, k, req.arg},
             peer_fds[static_cast<std::size_t>(j)]);
  }
  int acks = 0;
  while (acks < nprocs - 1) {
    bool any = false;
    for (int j = 0; j < nprocs; ++j) {
      if (j == k) continue;
      CtlRec ack;
      int afd = -1;
      if (ctl_recv(ctl_zyg[static_cast<std::size_t>(j)], &ack, &afd)) {
        if (afd >= 0) ::close(afd);
        MFC_CHECK_MSG(ack.type == kCtlSwapDone,
                      "expected a swap ack on the zygote channel");
        ++acks;
        any = true;
      }
    }
    if (!any) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ctl_send(ctl_zyg[0], CtlRec{kCtlRespawnDone, k, req.arg});
}

[[noreturn]] void zygote_main(const Machine::Config& config,
                              const std::function<void(int)>& entry,
                              std::unique_ptr<transport::Transport>& transport,
                              std::vector<int> ctl_zyg,
                              std::vector<int> ctl_proc, bool owns_chaos,
                              probe::Owned owned_probe) {
  const int nprocs = config.nprocs;
  std::vector<pid_t> grandkid(static_cast<std::size_t>(nprocs), 0);
  std::vector<pollfd> pfds(static_cast<std::size_t>(nprocs));
  for (;;) {
    for (int p = 0; p < nprocs; ++p) {
      pfds[static_cast<std::size_t>(p)] =
          pollfd{ctl_zyg[static_cast<std::size_t>(p)], POLLIN, 0};
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    // Reap respawned incarnations; report abnormal deaths to process 0 —
    // only this process, their parent, can waitpid them.
    for (;;) {
      int status = 0;
      const pid_t r = waitpid(-1, &status, WNOHANG);
      if (r <= 0) break;
      for (int p = 0; p < nprocs; ++p) {
        if (grandkid[static_cast<std::size_t>(p)] != r) continue;
        grandkid[static_cast<std::size_t>(p)] = 0;
        if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
          ctl_send(ctl_zyg[0], CtlRec{kCtlProcDeath, p, 0});
        }
      }
    }
    for (int src = 0; src < nprocs; ++src) {
      CtlRec rec;
      int fd = -1;
      while (ctl_recv(ctl_zyg[static_cast<std::size_t>(src)], &rec, &fd)) {
        if (fd >= 0) ::close(fd);  // no inbound record ships an fd
        switch (rec.type) {
          case kCtlReqRespawn:
            zygote_respawn(config, entry, transport, ctl_zyg, ctl_proc,
                           owns_chaos, owned_probe, rec, grandkid);
            break;
          case kCtlReqKill:
            if (grandkid[static_cast<std::size_t>(rec.proc)] > 0) {
              ::kill(grandkid[static_cast<std::size_t>(rec.proc)], SIGKILL);
            }
            break;
          case kCtlShutdown:
            for (const pid_t g : grandkid) {
              if (g > 0) waitpid(g, nullptr, 0);
            }
            std::_Exit(0);
          default:
            MFC_CHECK_MSG(false, "unexpected record on the zygote channel");
        }
        fd = -1;
      }
    }
    if ((pfds[0].revents & (POLLERR | POLLHUP)) != 0) {
      // Process 0 died without a shutdown order: the run is gone; don't
      // linger as an orphan.
      std::_Exit(0);
    }
  }
}

}  // namespace

HandlerId register_handler(HandlerFn fn) {
  std::lock_guard<std::mutex> lock(g_register_mutex);
  const std::uint32_t id = g_handler_count.load(std::memory_order_relaxed);
  MFC_CHECK_MSG(id < kMaxHandlers, "handler table full");
  g_handler_slots[id].store(new HandlerFn(std::move(fn)),
                            std::memory_order_release);
  g_handler_count.store(id + 1, std::memory_order_relaxed);
  return id;
}

void Machine::run(const Config& config, std::function<void(int)> entry) {
  MFC_CHECK_MSG(g_machine == nullptr, "Machine::run is not reentrant");
  MFC_CHECK(config.npes >= 1);
  MFC_CHECK(config.nprocs >= 1);
  const bool wire_on = config.transport != Config::Transport::kInProc;
  if (config.nprocs > 1) {
    MFC_CHECK_MSG(wire_on, "nprocs > 1 requires a wire transport");
    MFC_CHECK_MSG(config.npes % config.nprocs == 0,
                  "npes must divide evenly across processes");
  }
  register_builtin_handlers();

  // ---- Shared setup, pre-fork: children inherit all of it. ----

  // Chaos may also be installed by the caller before run (tests do this to
  // inspect injection counters afterwards); then the machine just uses it.
  const bool owns_chaos = config.chaos.enabled && !chaos::enabled();
  if (owns_chaos) chaos::install(config.chaos);

  // One probe session sizes every observability sink: fresh counter
  // books, plus a trace session (MFC_TRACE=1), latency histograms
  // (MFC_STATS=1) and the flight recorder (default on) — exported at
  // shutdown. Sessions a test or bench started explicitly are left to
  // their owner.
  const probe::Owned owned_probe = probe::start(config.npes);

  const bool owns_region =
      config.iso_slots_per_pe > 0 && !iso::Region::initialized();
  if (owns_region) {
    iso::Region::Config iso_cfg;
    iso_cfg.npes = config.npes;
    iso_cfg.slot_bytes = config.iso_slot_bytes;
    iso_cfg.slots_per_pe = config.iso_slots_per_pe;
    iso::Region::init(iso_cfg);
  }

  // The wire (shm segment / socketpairs) must exist before the fork so
  // every process holds the same mappings and descriptors.
  std::unique_ptr<transport::Transport> transport;
  if (wire_on) {
    transport::Options topt;
    topt.npes = config.npes;
    topt.nprocs = config.nprocs;
    topt.shm_ring_bytes = config.shm_ring_bytes;
    topt.rendezvous_bytes = config.rendezvous_bytes;
    transport = config.transport == Config::Transport::kShm
                    ? transport::make_shm_transport(topt)
                    : transport::make_socket_transport(topt);
  }

  // ---- Process-tier FT: fork the respawn zygote. ----
  // It must come from this pristine pre-fork image — after the kids fork
  // below, every live process carries threads and divergent state a
  // replacement must not inherit. One SEQPACKET pair per machine process
  // carries the control protocol.
  const bool ft_respawn = g_ft_hooks_set && config.nprocs > 1;
  std::vector<int> ctl_proc;
  pid_t zygote_pid = 0;
  if (ft_respawn) {
    ctl_proc.assign(static_cast<std::size_t>(config.nprocs), -1);
    std::vector<int> ctl_zyg(static_cast<std::size_t>(config.nprocs), -1);
    for (int p = 0; p < config.nprocs; ++p) {
      int sv[2];
      MFC_CHECK_MSG(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sv) == 0,
                    "machine ctl socketpair failed");
      ctl_proc[static_cast<std::size_t>(p)] = sv[0];
      ctl_zyg[static_cast<std::size_t>(p)] = sv[1];
    }
    zygote_pid = fork();
    MFC_CHECK_MSG(zygote_pid >= 0, "respawn zygote fork failed");
    if (zygote_pid == 0) {
      // The zygote keeps both fd arrays: its own ends to serve the
      // protocol, the proc ends so future respawns inherit theirs.
      zygote_main(config, entry, transport, std::move(ctl_zyg),
                  std::move(ctl_proc), owns_chaos, owned_probe);
    }
    for (const int fd : ctl_zyg) ::close(fd);
  }

  // ---- Fork: process k hosts PEs [k*ppn, (k+1)*ppn). ----
  // No threads exist yet in this process, so the children are clean
  // single-threaded images of the shared setup above.
  int my_proc = 0;
  std::vector<pid_t> kids;
  for (int p = 1; p < config.nprocs && my_proc == 0; ++p) {
    const pid_t pid = fork();
    MFC_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      my_proc = p;
      kids.clear();
    } else {
      kids.push_back(pid);
    }
  }

  ProcRun ctx;
  ctx.config = &config;
  ctx.entry = &entry;
  ctx.transport = &transport;
  ctx.my_proc = my_proc;
  ctx.zygote_pid = zygote_pid;
  ctx.kids = std::move(kids);
  ctx.owns_chaos = owns_chaos;
  ctx.owned_probe = owned_probe;
  if (ft_respawn) {
    // Each machine process keeps only its own ctl end.
    for (int p = 0; p < config.nprocs; ++p) {
      if (p == my_proc) {
        ctx.ctl_fd = ctl_proc[static_cast<std::size_t>(p)];
      } else {
        ::close(ctl_proc[static_cast<std::size_t>(p)]);
      }
    }
  }
  const int my_ctl = ctx.ctl_fd;
  run_machine_process(std::move(ctx));  // children _Exit(0) inside

  // Parent (process 0): collect any children the idle hook hadn't reaped
  // yet. With the process tier armed an abnormal exit was a recovered (or
  // being-recovered) failure, not a protocol violation.
  for (std::size_t k = 0; k < g_machine->kids.size(); ++k) {
    if (g_machine->kids_reaped != nullptr &&
        g_machine->kids_reaped[k].load(std::memory_order_acquire)) {
      continue;
    }
    int status = 0;
    const pid_t r = waitpid(g_machine->kids[k], &status, 0);
    if (r == g_machine->kids[k]) {
      MFC_CHECK_MSG((WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
                        ft_respawn,
                    "machine child process exited abnormally");
    }
  }
  if (ft_respawn) {
    // Zygote shutdown handshake: it blocks reaping every respawned
    // incarnation (they exit through the same stop broadcast), then exits.
    ctl_send(my_ctl, CtlRec{kCtlShutdown, 0, 0});
    int zstatus = 0;
    waitpid(zygote_pid, &zstatus, 0);
    MFC_CHECK_MSG(WIFEXITED(zstatus) && WEXITSTATUS(zstatus) == 0,
                  "respawn zygote exited abnormally");
    ::close(my_ctl);
  }
  transport.reset();

  delete g_machine;  // ~Pe drains inboxes/stashes/pools via the counted path
  g_machine = nullptr;
  if (owns_region) iso::Region::shutdown();
  if (owns_chaos) chaos::uninstall();
  // Children already wrote their parts (reaped above).
  probe::finish(owned_probe);

  // The shutdown-leak invariant: every envelope this run allocated came
  // back through destroy_message — including messages still queued in peer
  // inboxes or chaos delay stashes when the last main finished.
  MFC_CHECK_MSG(metrics::total(metrics::Counter::kMsgsAllocated) ==
                    metrics::total(metrics::Counter::kMsgsFreed),
                "message envelopes leaked at machine shutdown");
}

int my_pe() {
  MFC_CHECK_MSG(t_pe != nullptr, "not on a PE kernel thread");
  return t_pe->id;
}

int num_pes() {
  MFC_CHECK_MSG(g_machine != nullptr, "machine not running");
  return g_machine->npes;
}

bool in_pe_context() { return t_pe != nullptr; }

int num_procs() { return g_machine != nullptr ? g_machine->nprocs : 1; }

int my_proc() { return g_machine != nullptr ? g_machine->my_proc : 0; }

namespace detail {

Message* acquire_message(std::size_t payload_bytes) {
  MFC_CHECK(g_machine != nullptr);
  iso::SystemHeapScope system_heap;
  Message* m = t_pe != nullptr ? pool_acquire(t_pe) : create_message();
  m->payload.resize(payload_bytes);
  return m;
}

void send_message(int dest_pe, HandlerId handler, Message* m) {
  MFC_CHECK(g_machine != nullptr);
  MFC_CHECK(dest_pe >= 0 && dest_pe < g_machine->npes);
  // A ULT can lose the processor right at a send boundary — the classic
  // window where a racing handler observes half-updated thread state.
  chaos::preempt_point("converse.send");
  iso::SystemHeapScope system_heap;  // after the preempt point: no switch
  m->handler = handler;
  m->src_pe = t_pe != nullptr ? t_pe->id : -1;
  m->dest_pe = dest_pe;
  // Cross-PE sends get a flow id so the exporter can draw an arrow from
  // this send to the remote dispatch; assigned per send (recycled
  // envelopes carry stale ids otherwise). The inline enabled() test keeps
  // the tracing-off cost to the same predictable branch emit() pays.
  m->trace_flow = 0;
  if (trace::enabled() && m->src_pe >= 0 && m->src_pe != dest_pe) {
    m->trace_flow = probe::next_flow_id();
  }
  // The send edge's stamp opens the queue-wait interval, with the same
  // per-send-assignment discipline as trace_flow (recycled envelopes carry
  // stale stamps otherwise). Wire sends are re-stamped at the receiving
  // process's enqueue hook.
  m->stamp = probe::emit(probe::Ev::kMsgSend, m->trace_flow, handler,
                         static_cast<std::uint32_t>(m->payload.size()),
                         static_cast<std::int16_t>(dest_pe));

  // Wire routing: loopback mode ships every cross-PE send; multi-process
  // ships only cross-process destinations (same-process PEs keep the
  // direct lock-free queues). The transport copies/writes the payload
  // before returning, so the envelope is released immediately.
  if (g_machine->transport != nullptr && m->src_pe >= 0 &&
      dest_pe != m->src_pe &&
      (g_machine->nprocs == 1 || !pe_local(dest_pe))) {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(wire::Kind::kEager);
    h.handler = handler;
    h.src_pe = m->src_pe;
    h.dest_pe = dest_pe;
    h.payload_len = m->payload.size();
    h.total_len = h.payload_len;
    h.trace_flow = m->trace_flow;
    wire::Span s{m->payload.data(), m->payload.size()};
    g_machine->transport->send(h, &s, 1, nullptr);
    release_message(m);
    return;
  }
  MFC_CHECK_MSG(pe_local(dest_pe),
                "sends from non-PE threads must target local PEs");
  enqueue_or_inline(dest_pe, m);
}

Message* retain_message(Message& m) {
  MFC_CHECK_MSG(t_pe != nullptr, "retain_message outside a handler");
  t_pe->retained = &m;
  return &m;
}

void release_message(Message* m) {
  iso::SystemHeapScope system_heap;
  converse::release_message(m);
}

}  // namespace detail

void send(int dest_pe, HandlerId handler, std::vector<char> payload) {
  Message* m = detail::acquire_message(0);
  m->payload.adopt(std::move(payload));
  detail::send_message(dest_pe, handler, m);
}

void send_spans(int dest_pe, HandlerId handler, const SendSpan* spans,
                std::size_t nspans, std::function<void()> on_consumed) {
  MFC_CHECK(g_machine != nullptr);
  MFC_CHECK(dest_pe >= 0 && dest_pe < g_machine->npes);
  chaos::preempt_point("converse.send");
  iso::SystemHeapScope system_heap;
  const int src = t_pe != nullptr ? t_pe->id : -1;
  const std::size_t total = wire::spans_total(spans, nspans);
  std::uint64_t flow = 0;
  if (trace::enabled() && src >= 0 && src != dest_pe) {
    flow = probe::next_flow_id();
  }
  probe::emit(probe::Ev::kMsgSend, flow, handler, probe::u32(total),
              static_cast<std::int16_t>(dest_pe), /*c=span send*/ 1);
  if (g_machine->transport != nullptr && src >= 0 && dest_pe != src &&
      (g_machine->nprocs == 1 || !pe_local(dest_pe))) {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(wire::Kind::kEager);
    h.handler = handler;
    h.src_pe = src;
    h.dest_pe = dest_pe;
    h.payload_len = total;
    h.total_len = total;
    h.trace_flow = flow;
    g_machine->transport->send(h, spans, nspans, std::move(on_consumed));
    return;
  }
  MFC_CHECK_MSG(pe_local(dest_pe),
                "sends from non-PE threads must target local PEs");
  // In-process: the spans gather once, directly into the pooled delivery
  // envelope — the buffer the destination handler will read, not an
  // intermediate wire blob. on_consumed runs before the envelope becomes
  // reachable by the destination.
  Message* m = detail::acquire_message(total);
  wire::spans_gather(m->payload.data(), spans, nspans);
  if (on_consumed) on_consumed();
  m->handler = handler;
  m->src_pe = src;
  m->dest_pe = dest_pe;
  m->trace_flow = flow;
  m->stamp = hist::on() ? rdtsc() : 0;
  enqueue_or_inline(dest_pe, m);
}

void broadcast(HandlerId handler, const std::vector<char>& payload) {
  const int n = num_pes();
  for (int pe = 0; pe < n; ++pe) {
    Message* m = detail::acquire_message(payload.size());
    if (!payload.empty()) {
      std::memcpy(m->payload.data(), payload.data(), payload.size());
    }
    detail::send_message(pe, handler, m);
  }
}

void barrier() {
  Pe* pe = t_pe;
  MFC_CHECK_MSG(pe != nullptr, "barrier() outside PE context");
  MFC_CHECK_MSG(pe->sched.in_thread(), "barrier() must run inside a ULT");
  MFC_CHECK_MSG(pe->barrier_waiter == nullptr,
                "one barrier waiter per PE at a time");
  pe->barrier_gen += 1;
  pe->barrier_waiter = pe->sched.running();
  BarrierMsg msg{pe->barrier_gen};
  send_value(0, h_barrier_arrive, msg);
  pe->sched.suspend();  // resumed by the release handler
}

void ready_thread(ult::Thread* t) {
  MFC_CHECK_MSG(t_pe != nullptr, "ready_thread outside PE context");
  t_pe->sched.ready(t);
}

ult::Scheduler& pe_scheduler() {
  MFC_CHECK_MSG(t_pe != nullptr, "pe_scheduler outside PE context");
  return t_pe->sched;
}

std::uint64_t messages_sent() {
  return g_machine != nullptr ? total_sent() : 0;
}

std::uint64_t messages_delivered() {
  return g_machine != nullptr ? total_delivered() : 0;
}

PoolStats pool_stats() {
  PoolStats s;
  s.allocated = metrics::total(metrics::Counter::kMsgsAllocated);
  s.freed = metrics::total(metrics::Counter::kMsgsFreed);
  s.recycled = metrics::total(metrics::Counter::kMsgsRecycled);
  s.drained_at_shutdown = metrics::total(metrics::Counter::kMsgsDrained);
  return s;
}

void wait_quiescence() {
  Pe* pe = t_pe;
  MFC_CHECK_MSG(pe != nullptr && pe->sched.in_thread(),
                "wait_quiescence() must run inside a ULT on a PE");
  pe->quiescence_waiters.push_back(pe->sched.running());
  qd_send(0, h_qd_start, {});
  pe->sched.suspend();
}

void set_ft_machine_hooks(FtMachineHooks hooks) {
  MFC_CHECK_MSG(g_machine == nullptr,
                "install FT hooks before Machine::run");
  g_ft_hooks = std::move(hooks);
  g_ft_hooks_set = true;
}

void clear_ft_machine_hooks() {
  MFC_CHECK_MSG(g_machine == nullptr,
                "remove FT hooks after Machine::run returns");
  g_ft_hooks = FtMachineHooks{};
  g_ft_hooks_set = false;
}

namespace {

/// Remote-PE tail shared by kill_pe/revive_pe: ships a kFtCtl frame to the
/// process hosting `pe`; whichever thread there drains the frame flips the
/// flags (hooks.ft_ctl).
void send_ft_ctl(int pe, std::uint64_t op) {
  MFC_CHECK_MSG(t_pe != nullptr && g_machine->transport != nullptr,
                "cross-process kill/revive requires a PE thread and a wire");
  wire::Header h;
  h.src_pe = t_pe->id;
  h.dest_pe = pe;
  h.msg_id = op;
  g_machine->transport->send_ctl(h);
}

}  // namespace

void kill_pe(int pe) {
  MFC_CHECK(g_machine != nullptr && g_machine->ft_on);
  MFC_CHECK_MSG(pe > 0 && pe < g_machine->npes,
                "PE 0 is the FT coordinator and cannot be killed");
  if (!pe_local(pe)) {
    send_ft_ctl(pe, 0);
    return;
  }
  g_machine->dead[pe].store(true, std::memory_order_release);
  // If the victim was parked idle, wake it so its loop observes the flag
  // (a wake with no data pops nullptr and re-enters the loop top).
  g_machine->pes[static_cast<std::size_t>(pe)]->queue.wake();
}

void revive_pe(int pe) {
  MFC_CHECK(g_machine != nullptr && g_machine->ft_on);
  MFC_CHECK(pe > 0 && pe < g_machine->npes);
  if (!pe_local(pe)) {
    // Rides the same ordered stream as ordinary sends from this PE, so the
    // revive (and its wipe) lands before any refill sent afterwards.
    send_ft_ctl(pe, 1);
    return;
  }
  // Order matters: the wipe flag must be visible before the loop escapes
  // its dead spin, so the on_revive hook always precedes the backlog drain.
  g_machine->wipe_pending[pe].store(true, std::memory_order_release);
  g_machine->dead[pe].store(false, std::memory_order_release);
}

bool pe_dead(int pe) {
  return g_machine != nullptr && g_machine->ft_on && pe >= 0 &&
         pe < g_machine->npes && pe_local(pe) &&
         g_machine->dead[pe].load(std::memory_order_acquire);
}

int respawn_generation() {
  return g_machine != nullptr ? g_machine->respawn_gen : 0;
}

bool ft_proc_respawn_enabled() {
  return g_machine != nullptr && g_machine->ft_respawn;
}

int take_dead_proc() {
  if (g_machine == nullptr || !g_machine->ft_respawn) return -1;
  return g_machine->dead_proc_event.exchange(-1, std::memory_order_acq_rel);
}

void request_respawn(int proc) {
  MachineState* st = g_machine;
  MFC_CHECK(st != nullptr && st->ft_respawn && st->my_proc == 0);
  MFC_CHECK(proc > 0 && proc < st->nprocs);
  st->proc_respawned[static_cast<std::size_t>(proc)] = true;
  ctl_send(st->ctl_fd, CtlRec{kCtlReqRespawn, proc, ++st->next_respawn_gen});
}

bool take_respawn_complete(int proc) {
  MachineState* st = g_machine;
  if (st == nullptr || !st->ft_respawn) return false;
  int expect = proc;
  return st->respawn_done_event.compare_exchange_strong(
      expect, -1, std::memory_order_acq_rel);
}

void kill_proc(int proc) {
  MachineState* st = g_machine;
  MFC_CHECK(st != nullptr && st->ft_respawn && st->my_proc == 0);
  MFC_CHECK_MSG(proc > 0 && proc < st->nprocs,
                "process 0 hosts the FT coordinator and cannot be killed");
  if (st->proc_respawned[static_cast<std::size_t>(proc)]) {
    // The current incarnation is a zygote grandchild; only the zygote
    // holds its pid.
    ctl_send(st->ctl_fd, CtlRec{kCtlReqKill, proc, 0});
    return;
  }
  const std::size_t k = static_cast<std::size_t>(proc - 1);
  if (!st->kids_reaped[k].load(std::memory_order_acquire)) {
    ::kill(st->kids[k], SIGKILL);
  }
}

void begin_qd_drain() {
  MFC_CHECK(g_machine != nullptr);
  g_machine->qd_drain.store(true, std::memory_order_release);
}

void end_qd_drain() {
  MFC_CHECK(g_machine != nullptr);
  g_machine->qd_drain.store(false, std::memory_order_release);
}

void iso_claim(const iso::SlotId& id) {
  MFC_CHECK(g_machine != nullptr && id.valid());
  if (pe_local(id.pe)) {
    iso::Region::instance().reassert(id);
    return;
  }
  metrics::bump(Counter::kFtSent);
  send_value(id.pe, h_iso_claim, id);
}

}  // namespace mfc::converse
