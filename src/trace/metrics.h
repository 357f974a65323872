// Machine-wide metrics registry.
//
// One named counter set, stored as per-PE cache-line-isolated slots plus a
// shared slot for threads that never bind (the machine teardown path, test
// main threads). Replaces the ad-hoc counter globals that used to live in
// converse/machine.cc so benches, tests, and the storm driver read one
// snapshot/merge API instead of N private bookkeeping schemes.
//
// Write discipline mirrors the messaging layer: a counter slot is written
// only by its owning PE's kernel thread, so a bump on a bound thread is a
// relaxed load+store — no lock-prefixed RMW on the hot path. Unbound
// threads fall back to fetch_add on the shared slot (cold paths only).
// Threads bind through the probe (probe.h), which also bumps the counters
// its event table maps events to.
#pragma once

#include <atomic>
#include <cstdint>

namespace mfc::metrics {

enum class Counter : int {
  // Messaging (converse layer).
  kMsgsSent = 0,
  kMsgsDelivered,
  kQdSent,       ///< quiescence-detection system traffic, counted apart
  kQdDelivered,
  kMsgsAllocated,  ///< envelope lifecycle books (pool audit)
  kMsgsFreed,
  kMsgsRecycled,
  kMsgsDrained,  ///< reclaimed from queues/stashes at shutdown
  // Thread migration packs/unpacks by technique (paper §3.4).
  kPackStackCopy,
  kPackIso,
  kPackMemAlias,
  kUnpackStackCopy,
  kUnpackIso,
  kUnpackMemAlias,
  // Higher layers.
  kElemMigrations,  ///< chare-array element departures
  kElemForwards,    ///< element-message hops that did not deliver
  kElemLocates,     ///< location updates sent to a misrouted message's origin
  kLbMigrations,    ///< migrations ordered by the LB strategy
  kChaosInjections,
  // Fault tolerance (ft layer). Sent/delivered mirror the QD pair: FT
  // protocol traffic is subtracted from the app books so checkpoints and
  // recovery never perturb quiescence accounting.
  kFtSent,
  kFtDelivered,
  kFtCheckpoints,      ///< committed checkpoint epochs
  kFtCheckpointBytes,  ///< total bytes captured across epochs (local copies)
  kFtKills,
  kFtDetections,
  kFtRecoveries,
  kFtShipBytes,    ///< checkpoint payload bytes shipped to buddies (post-delta)
  kFtDeltaRanges,  ///< coalesced dirty ranges shipped in incremental stores
  kFtAsyncChunks,  ///< bounded stream chunks sent by async checkpointing
  kFtDirtyPages,   ///< pages caught by the write barrier between epochs
  // Cross-process wire transports (converse/transport). Sent-side counters
  // land in the sending PE's slot; delivered lands in the draining thread's
  // slot (the shared slot when the comm thread drained).
  kWireSentFrames,  ///< frames pushed onto a ring / written to a socket
  kWireSentBytes,   ///< payload bytes shipped over the wire
  kWireDelivered,   ///< messages enqueued from the wire to a local PE
  kWireChunks,      ///< kChunk frames (messages split to fit the shm ring)
  kWireRendezvous,  ///< rendezvous (RTS/CTS/DATA) transfers initiated
  kSpanSends,       ///< send_spans() calls (scatter-gather message sends)
  kWireRetries,     ///< transient socket errors retried (EAGAIN/EPIPE/ECONNRESET)
  kWirePeDrains,    ///< shm frames popped by PE threads (not the comm thread)
  // Process-tier fault tolerance (cross-process FT).
  kProcKills,       ///< whole processes SIGKILLed / declared dead
  kProcRespawns,    ///< dead processes respawned by the zygote
  kCount,
};
constexpr int kCounterCount = static_cast<int>(Counter::kCount);

const char* to_string(Counter c);

/// Zeroes every slot and (re)sizes to `npes` per-PE slots + 1 shared slot.
/// Must be called while no PE loop is running (Machine::run start does).
/// Values persist after the machine stops until the next reset, so
/// post-run reads (pool audits, bench reports) see the final books.
void reset(int npes);

/// PE slots currently allocated (0 before the first reset).
int npes();

namespace detail {
struct alignas(64) Slot {
  std::atomic<std::uint64_t> v[kCounterCount] = {};
};

// g_slots[0..g_npes-1] are the per-PE single-writer slots; g_slots[g_npes]
// is the shared slot. Swapped only by reset() under the quiescence
// contract.
extern Slot* g_slots;
extern int g_npes;

/// Adds `n` to counter `i`: single-writer store on `s` (the caller's bound
/// slot), shared fetch_add when `s` is null. Drops before the first reset.
inline void add(Slot* s, int i, std::uint64_t n) {
  if (s != nullptr) {
    s->v[i].store(s->v[i].load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    return;
  }
  if (g_slots == nullptr) return;
  g_slots[g_npes].v[i].fetch_add(n, std::memory_order_relaxed);
}
}  // namespace detail

/// Increments `c` by `n` for an occurrence no probe event reports: the
/// bound PE's slot, or the shared slot from an unbound thread.
void bump(Counter c, std::uint64_t n = 1);

/// Sum over all PE slots plus the shared slot.
std::uint64_t total(Counter c);

/// One PE's slot value (shared slot excluded); 0 if out of range.
std::uint64_t pe_value(Counter c, int pe);

/// Point-in-time copy of the merged counters — the one API benches, tests,
/// and the storm driver use instead of scraping layer-private globals.
struct Snapshot {
  std::uint64_t v[kCounterCount] = {};
  // Provenance: which process(es) these values came from. A fresh snapshot
  // covers exactly one process (`proc`; its bit set in `procs`). merge()
  // unions the masks and collapses `proc` to -1 when the sources differ,
  // so a merged multi-process snapshot is an explicit union across procs
  // instead of silently summing into one fake proc-0 view — and merging
  // the same process twice is detectable (`procs` unchanged).
  int proc = 0;
  int nprocs = 1;
  std::uint64_t procs = 1;  ///< bitmask of contributing proc ids (proc ≤ 63)

  std::uint64_t operator[](Counter c) const {
    return v[static_cast<int>(c)];
  }
  /// Counter deltas since `since` (per-counter saturating at 0).
  Snapshot diff(const Snapshot& since) const;
  /// Element-wise accumulate (merging snapshots from separate runs or,
  /// with distinct provenance, from the processes of one machine run).
  void merge(const Snapshot& other);
};

Snapshot snapshot();

}  // namespace mfc::metrics
