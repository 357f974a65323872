// One probe: the single emission point for every observability sink.
//
// An occurrence the runtime reports (a send, a dispatch, a pack, a kill)
// is emitted ONCE, and a static per-event table decides what it feeds:
//  - the counter registry (metrics.h) — always on; QD and the pool audit
//    read it;
//  - the latency histograms (hist.h) — armed by MFC_STATS; a closing
//    edge records (now - the opening edge's stamp) into its histogram;
//  - the trace ring (trace.h) — armed by MFC_TRACE;
//  - the flight recorder (flight.h) — on by default; flight-class events
//    only.
//
// One session, one binding: Machine::run calls start() once to size every
// sink, each PE loop binds its kernel thread with one bind_pe(), and the
// post-fork identity is declared with one set_proc(). The binding lives in
// one thread_local struct (counter slot, histogram slot, trace ring, PE id
// for flight notes, the epoch that invalidates it when a sink is resized,
// and the cached timestamp), and one TscAnchor calibrates every sink.
//
// Cost model: with stats and trace off, an emit is its counter bumps (a
// relaxed single-writer load+store on the bound slot) plus two predicted
// branches. With stats armed, every histogram edge reads the clock once and
// that same read stamps the ring record; with only tracing armed, the
// clock is read fresh on span-closing events and reused with bounded
// staleness elsewhere (see kTscRefreshStride). Flight-class events are
// rare and always read it fresh.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/flight.h"
#include "trace/hist.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/timer.h"

namespace mfc::probe {

using trace::Ev;
using metrics::Counter;
using hist::Hist;

/// How an event moves a counter: by one, by one on counter
/// `counter + c - 1` (c in 1..picks chooses among `picks` consecutive
/// counters: the technique tag of a pack, the step of an element reroute),
/// or by the value of the record's `a`, `size` or `c` field.
enum class By : std::uint8_t { kOne, kPick, kA, kSize, kC };

struct Tally {
  Counter counter = Counter::kCount;  ///< kCount: no counter
  By by = By::kOne;
  std::uint8_t picks = 1;  ///< By::kPick: consecutive counters from `counter`
};

/// What one event feeds besides the trace ring.
struct EvInfo {
  Tally tally[2] = {Tally{}, Tally{}};
  /// Recorded as (this edge's stamp - `since`) when emitted with a
  /// nonzero `since` while stats are armed.
  Hist hist = Hist::kCount;
  bool edge = false;    ///< opens or closes a histogram interval: stamped
  bool closes = false;  ///< closes a trace span: its clock read is fresh
  bool flight = false;  ///< triage-critical: noted in the flight recorder
};

constexpr EvInfo info(Ev ev) {
  switch (ev) {
    case Ev::kHandlerBegin:
      return {.tally = {{Counter::kMsgsDelivered}},
              .hist = Hist::kQueueWait, .edge = true};
    case Ev::kHandlerEnd:
      return {.hist = Hist::kHandlerService, .edge = true, .closes = true};
    case Ev::kMsgSend:  // c = 1 marks a scatter-gather send_spans()
      return {.tally = {{Counter::kMsgsSent}, {Counter::kSpanSends, By::kC}},
              .edge = true};
    case Ev::kUltSwitchOut:
    case Ev::kWireSendEnd:
    case Ev::kWireAsmEnd:
      return {.closes = true};
    case Ev::kMigratePackBegin:
      return {.tally = {{Counter::kPackStackCopy, By::kPick, 3}},
              .edge = true, .flight = true};
    case Ev::kMigratePackEnd:
      return {.hist = Hist::kMigratePack, .edge = true, .closes = true,
              .flight = true};
    case Ev::kMigrateUnpackBegin:
      return {.tally = {{Counter::kUnpackStackCopy, By::kPick, 3}},
              .edge = true, .flight = true};
    case Ev::kMigrateUnpackEnd:
      return {.hist = Hist::kMigrateUnpack, .edge = true, .closes = true,
              .flight = true};
    case Ev::kElemDepart:
      return {.tally = {{Counter::kElemMigrations}}, .flight = true};
    case Ev::kElemReroute:  // c = 1 forwarded, 2 locate update sent
      return {.tally = {{Counter::kElemForwards, By::kPick, 2}}};
    case Ev::kLbDecision:  // a = migrations ordered
      return {.tally = {{Counter::kLbMigrations, By::kA}}, .flight = true};
    case Ev::kChaosInject:
      return {.tally = {{Counter::kChaosInjections}}, .flight = true};
    case Ev::kFtCheckpointEnd:  // size = checkpoint bytes (saturated)
      return {.tally = {{Counter::kFtCheckpoints},
                        {Counter::kFtCheckpointBytes, By::kSize}},
              .closes = true, .flight = true};
    case Ev::kFtKill:
      return {.tally = {{Counter::kFtKills}}, .flight = true};
    case Ev::kFtDetect:
      return {.tally = {{Counter::kFtDetections}}, .flight = true};
    case Ev::kFtRecoveryBegin:
      return {.tally = {{Counter::kFtRecoveries}}, .flight = true};
    case Ev::kFtRecoveryEnd:
      return {.closes = true, .flight = true};
    case Ev::kElemArrive:
    case Ev::kStormRound:
    case Ev::kFtCheckpointBegin:
      return {.flight = true};
    case Ev::kFtProcDown:
      return {.tally = {{Counter::kProcKills}}, .flight = true};
    case Ev::kFtProcRespawn:
      return {.tally = {{Counter::kProcRespawns}}, .flight = true};
    case Ev::kWireSendBegin:  // size = payload bytes (saturated)
      return {.tally = {{Counter::kWireSentBytes, By::kSize}}};
    case Ev::kWireDeliver:
      return {.tally = {{Counter::kWireDelivered}}};
    case Ev::kWireRts:
      return {.tally = {{Counter::kWireRendezvous}}};
    default:
      return {};
  }
}

/// Saturating narrowing for the 32-bit `size` field.
inline std::uint32_t u32(std::uint64_t v) {
  return v > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(v);
}

// Records streams with no closing edge reuse the cached clock read for at
// most this many records, so per-ring timestamps stay monotonic and close.
constexpr unsigned kTscRefreshStride = 8;

namespace detail {

/// A kernel thread's binding to its PE's share of every sink.
struct Binding {
  metrics::detail::Slot* counters = nullptr;  ///< null: the shared slot
  hist::detail::Slot* hist = nullptr;         ///< null: the shared slot
  trace::Ring* ring = nullptr;                ///< null: trace drops
  std::uint64_t epoch = 0;
  std::uint64_t tsc_cache = 0;
  unsigned tsc_age = 1u << 30;  // stale ⇒ the first emit reads the clock
  std::int16_t pe = -1;         ///< flight-recorder track
};
extern thread_local Binding t_bind;

/// Bumped whenever a sink's storage is (re)sized or freed, so a binding
/// from an earlier generation falls back to the unbound paths instead of
/// dangling. Sinks are resized only while no PE loop runs.
extern std::atomic<std::uint64_t> g_epoch;
inline void invalidate_bindings() {
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

/// The calling thread's binding if it is current, else null.
inline Binding* bound() {
  Binding& t = t_bind;
  return t.epoch == g_epoch.load(std::memory_order_relaxed) ? &t : nullptr;
}

/// Moves the counter one tally of an event's table entry names.
inline void count(const Tally& k, std::uint32_t a, std::uint32_t size,
                  std::uint8_t c) {
  if (k.counter == Counter::kCount) return;
  int idx = static_cast<int>(k.counter);
  std::uint64_t n = 1;
  switch (k.by) {
    case By::kOne: break;
    case By::kPick: idx += c - 1; n = c != 0; break;
    case By::kA: n = a; break;
    case By::kSize: n = size; break;
    case By::kC: n = c; break;
  }
  if (n == 0) return;
  Binding* t = bound();
  metrics::detail::add(t != nullptr ? t->counters : nullptr, idx, n);
}

}  // namespace detail

/// Emits one occurrence to every sink its table entry names. Returns this
/// edge's clock stamp when stats are armed and the event is a histogram
/// edge (0 otherwise); pass it back as `since` on the closing edge.
[[gnu::always_inline]] inline std::uint64_t emit(
    Ev ev, std::uint64_t arg = 0, std::uint32_t a = 0, std::uint32_t size = 0,
    std::int16_t b = -1, std::uint8_t c = 0, std::uint64_t since = 0) {
  const EvInfo e = info(ev);
  detail::count(e.tally[0], a, size, c);
  detail::count(e.tally[1], a, size, c);
  std::uint64_t stamp = 0;
  if (e.edge && hist::on()) {
    stamp = rdtsc();
    if (e.hist != Hist::kCount && since != 0 && stamp > since) {
      detail::Binding* t = detail::bound();
      hist::detail::add(t != nullptr ? t->hist : nullptr, e.hist,
                        stamp - since);
    }
  }
  std::uint64_t tsc = stamp;
  if (trace::enabled()) {
    detail::Binding* t = detail::bound();
    if (t != nullptr && t->ring != nullptr) {
      if (stamp != 0 || e.closes || e.flight ||
          ++t->tsc_age >= kTscRefreshStride) {
        t->tsc_cache = stamp != 0 ? stamp : rdtsc();
        t->tsc_age = 0;
      }
      tsc = t->tsc_cache;
      t->ring->write(trace::Record{tsc, arg, a, size, b,
                                   static_cast<std::uint8_t>(ev), c});
    }
  }
  if (e.flight && trace::flight::on()) {
    detail::Binding* t = detail::bound();
    trace::flight::detail::note(
        trace::Record{tsc, arg, a, size, b, static_cast<std::uint8_t>(ev), c},
        t != nullptr ? t->pe : -1);
  }
  return stamp;
}

/// Allocates a machine-wide-unique flow id on the bound PE's ring (0 when
/// tracing is off or the thread is unbound). Flow ids tie a send to its
/// remote dispatch.
inline std::uint64_t next_flow_id() {
  if (!trace::enabled()) return 0;
  detail::Binding* t = detail::bound();
  return t != nullptr && t->ring != nullptr ? t->ring->next_flow() : 0;
}

/// The sinks Machine::run armed itself; an explicit session a test or
/// bench started before the run is left for its owner.
struct Owned {
  bool trace = false;
  bool stats = false;
};

/// Sizes every sink for an `npes`-PE run: fresh counters, a trace session
/// when MFC_TRACE is set, histograms when MFC_STATS is set, the flight
/// recorder unless MFC_FLIGHT=0. Re-anchors the clock calibration unless
/// an explicit trace session is running. Quiescent callers only.
Owned start(int npes);

/// Exports what start() armed: the trace as JSON (single process) or as
/// this process's part, which process 0 merges with its children's parts
/// into MFC_TRACE_FILE — so children call this before process 0 does;
/// and the MFC_STATS dump.
void finish(const Owned& owned);

/// Binds the calling kernel thread to PE `pe`'s counter slot, histogram
/// slot, trace ring and flight track (each only if that sink is sized and
/// `pe` is in its range); unbind_pe() returns it to the shared paths.
void bind_pe(int pe);
void unbind_pe();

/// Scoped wire-ring binding: while alive, the calling thread's ring
/// records land on the trace session's "wire" track and its other bindings
/// stay as they were (a thread no PE bound uses the shared counter and
/// histogram slots). The wire ring is single-writer: the socket comm
/// thread holds one for its lifetime, and on the shm wire only the holder
/// of the consumer token opens one. One branch when tracing is off.
class WireScope {
 public:
  WireScope() : on_(trace::enabled()) {
    if (on_) saved_ = enter_wire();
  }
  ~WireScope() {
    if (on_) leave_wire(saved_);
  }
  WireScope(const WireScope&) = delete;
  WireScope& operator=(const WireScope&) = delete;

 private:
  static detail::Binding enter_wire();
  static void leave_wire(const detail::Binding& saved);
  bool on_;
  detail::Binding saved_;
};

/// This process's place in the machine. Machine::run declares it post-fork;
/// counter snapshots, trace parts and flight dumps carry it as provenance.
struct Place {
  int proc = 0;
  int nprocs = 1;
  int local_first = 0;
  int local_npes = 0;  ///< 0: every PE is local
};
void set_proc(int proc, int nprocs, int local_first, int local_npes);
const Place& place();

/// The session's rdtsc ↔ monotonic-clock anchor, shared by every sink: the
/// trace origin, the flight recorder's origin, and the calibration
/// baseline for tick → ns conversion at export.
const TscAnchor& anchor();
void reanchor();

/// The observability environment (MFC_TRACE, MFC_STATS, MFC_FLIGHT and
/// their _FILE / _CAP companions). A flag is off when set to "0" and `dflt`
/// when unset or empty; a size must be a positive integer, else `dflt`.
bool env_flag(const char* name, bool dflt = false);
std::string env_str(const char* name, const char* dflt);
std::size_t env_size(const char* name, std::size_t dflt);

}  // namespace mfc::probe
