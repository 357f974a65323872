#include "trace/metrics.h"

#include "trace/probe.h"

namespace mfc::metrics {

namespace detail {
Slot* g_slots = nullptr;
int g_npes = 0;
}  // namespace detail

using detail::g_npes;
using detail::g_slots;

const char* to_string(Counter c) {
  switch (c) {
    case Counter::kMsgsSent: return "msgs-sent";
    case Counter::kMsgsDelivered: return "msgs-delivered";
    case Counter::kQdSent: return "qd-sent";
    case Counter::kQdDelivered: return "qd-delivered";
    case Counter::kMsgsAllocated: return "msgs-allocated";
    case Counter::kMsgsFreed: return "msgs-freed";
    case Counter::kMsgsRecycled: return "msgs-recycled";
    case Counter::kMsgsDrained: return "msgs-drained";
    case Counter::kPackStackCopy: return "pack-stackcopy";
    case Counter::kPackIso: return "pack-iso";
    case Counter::kPackMemAlias: return "pack-memalias";
    case Counter::kUnpackStackCopy: return "unpack-stackcopy";
    case Counter::kUnpackIso: return "unpack-iso";
    case Counter::kUnpackMemAlias: return "unpack-memalias";
    case Counter::kElemMigrations: return "elem-migrations";
    case Counter::kElemForwards: return "elem-forwards";
    case Counter::kElemLocates: return "elem-locates";
    case Counter::kElemLateDrops: return "elem-late-drops";
    case Counter::kLbMigrations: return "lb-migrations";
    case Counter::kChaosInjections: return "chaos-injections";
    case Counter::kFtSent: return "ft-sent";
    case Counter::kFtDelivered: return "ft-delivered";
    case Counter::kFtCheckpoints: return "ft-checkpoints";
    case Counter::kFtCheckpointBytes: return "ft-checkpoint-bytes";
    case Counter::kFtKills: return "ft-kills";
    case Counter::kFtDetections: return "ft-detections";
    case Counter::kFtRecoveries: return "ft-recoveries";
    case Counter::kFtShipBytes: return "ft-ship-bytes";
    case Counter::kFtDeltaRanges: return "ft-delta-ranges";
    case Counter::kFtAsyncChunks: return "ft-async-chunks";
    case Counter::kFtDirtyPages: return "ft-dirty-pages";
    case Counter::kWireSentFrames: return "wire-sent-frames";
    case Counter::kWireSentBytes: return "wire-sent-bytes";
    case Counter::kWireDelivered: return "wire-delivered";
    case Counter::kWireChunks: return "wire-chunks";
    case Counter::kWireRendezvous: return "wire-rendezvous";
    case Counter::kSpanSends: return "span-sends";
    case Counter::kWireRetries: return "wire-retries";
    case Counter::kWirePeDrains: return "wire-pe-drains";
    case Counter::kProcKills: return "proc-kills";
    case Counter::kProcRespawns: return "proc-respawns";
    case Counter::kCount: break;
  }
  return "?";
}

void reset(int npes) {
  if (npes < 0) npes = 0;
  delete[] g_slots;  // quiescence contract: no writer is live here
  g_slots = new detail::Slot[static_cast<std::size_t>(npes) + 1];
  g_npes = npes;
  probe::detail::invalidate_bindings();
}

int npes() { return g_npes; }

void bump(Counter c, std::uint64_t n) {
  probe::detail::Binding* t = probe::detail::bound();
  detail::add(t != nullptr ? t->counters : nullptr, static_cast<int>(c), n);
}

std::uint64_t total(Counter c) {
  if (g_slots == nullptr) return 0;
  const int i = static_cast<int>(c);
  std::uint64_t sum = 0;
  for (int s = 0; s <= g_npes; ++s) {
    sum += g_slots[static_cast<std::size_t>(s)].v[i].load(
        std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t pe_value(Counter c, int pe) {
  if (g_slots == nullptr || pe < 0 || pe >= g_npes) return 0;
  return g_slots[static_cast<std::size_t>(pe)]
      .v[static_cast<int>(c)]
      .load(std::memory_order_relaxed);
}

Snapshot Snapshot::diff(const Snapshot& since) const {
  Snapshot out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.v[i] = v[i] >= since.v[i] ? v[i] - since.v[i] : 0;
  }
  out.proc = proc;
  out.nprocs = nprocs;
  out.procs = procs;
  return out;
}

void Snapshot::merge(const Snapshot& other) {
  for (int i = 0; i < kCounterCount; ++i) v[i] += other.v[i];
  procs |= other.procs;
  if (other.nprocs > nprocs) nprocs = other.nprocs;
  if (other.proc != proc) proc = -1;  // mixed provenance: no single owner
}

Snapshot snapshot() {
  Snapshot out;
  for (int i = 0; i < kCounterCount; ++i) {
    out.v[i] = total(static_cast<Counter>(i));
  }
  const probe::Place& place = probe::place();
  out.proc = place.proc;
  out.nprocs = place.nprocs;
  out.procs = place.proc < 64 ? (std::uint64_t{1} << place.proc) : 0;
  return out;
}

}  // namespace mfc::metrics
