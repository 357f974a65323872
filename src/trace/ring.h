// Per-PE single-writer trace ring buffer.
//
// Fixed-size circular store of binary event records. One kernel thread (the
// owning PE's scheduler loop) writes; nobody reads until the machine has
// stopped and the exporter merges the rings, so the hot path is a couple of
// plain stores — no locks, no atomics, no allocation. When the ring is full
// the oldest record is overwritten (the most recent window is the one a
// failure triage needs) and a dropped-events counter keeps the books honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfc::trace {

/// Event taxonomy. Every record carries one of these; the exporter maps them
/// to Chrome trace-event phases (B/E duration pairs, instants, flow arrows).
enum class Ev : std::uint8_t {
  kHandlerBegin = 0,    ///< converse dispatch entered (a=handler, arg=flow id)
  kHandlerEnd,          ///< converse dispatch returned
  kMsgSend,             ///< message left the sender (a=handler, b=dest pe)
  kUltCreate,           ///< user-level thread constructed (arg=thread id)
  kUltSwitchIn,         ///< scheduler gave a ULT the processor
  kUltSwitchOut,        ///< ULT yielded/suspended/finished
  kUltSuspend,          ///< ULT blocked (no re-enqueue)
  kUltResume,           ///< ULT made runnable (ready())
  kMigratePackBegin,    ///< thread pack started (c=technique, arg=thread id)
  kMigratePackEnd,      ///< pack finished (size=wire bytes)
  kMigrateUnpackBegin,  ///< thread unpack started on the destination
  kMigrateUnpackEnd,    ///< unpack finished; thread resumable
  kIsoSlotAcquire,      ///< isomalloc slots acquired (a=index, size=count, b=strip)
  kIsoSlotRelease,      ///< isomalloc slots returned
  kElemDepart,          ///< chare-array element left a PE (arg=flow id)
  kElemArrive,          ///< chare-array element reconstructed
  kLbDecision,          ///< LB strategy issued orders (a=migrations)
  kChaosInject,         ///< fault injection fired (c=chaos point)
  kStormRound,          ///< storm driver round marker (a=round)
  kFtCheckpointBegin,   ///< checkpoint epoch started (arg=epoch)
  kFtCheckpointEnd,     ///< checkpoint epoch committed (size=bytes/KiB)
  kFtKill,              ///< PE declared dead (b=victim pe)
  kFtDetect,            ///< failure detector fired (b=victim pe)
  kFtRecoveryBegin,     ///< recovery coordinator started (b=victim pe)
  kFtRecoveryEnd,       ///< rollback complete, machine resumed (arg=epoch)
  kWireSendBegin,       ///< transport send entered (arg=flow, a=kind, b=dest pe)
  kWireSendEnd,         ///< transport send returned (size=wire bytes)
  kWireDeliver,         ///< comm thread enqueued an arrival (arg=flow, b=src pe)
  kWireAsmBegin,        ///< chunk reassembly started (arg=msg id, size=total)
  kWireAsmEnd,          ///< last chunk landed; message deliverable
  kWireRts,             ///< rendezvous RTS issued (arg=rdv id, b=dest pe)
  kWireCts,             ///< rendezvous CTS sent back (arg=rdv id)
  kWireRdvDone,         ///< rendezvous payload written span-direct (size=bytes)
  kFtProcDown,          ///< whole process declared dead (a=proc, b=first pe)
  kFtProcRespawn,       ///< dead process respawned (a=proc, arg=generation)
  kElemReroute,         ///< element message not delivered directly (a=index,
                        ///< arg=hops; c=1 forwarded to b, or buffered at the
                        ///< home when b=-1; c=2 locate sent to origin b)
  kElemLateDrop,        ///< message for an array this PE already destroyed,
                        ///< dropped (a=array id, c=array message kind)
  kCount,
};
constexpr int kEvCount = static_cast<int>(Ev::kCount);

const char* to_string(Ev ev);

/// Fixed-size binary event record (32 bytes). Timestamps are raw rdtsc
/// ticks; the session calibrates them against steady_clock once, at export.
struct Record {
  std::uint64_t tsc = 0;
  std::uint64_t arg = 0;   ///< flow id / thread id / seed — event-specific
  std::uint32_t a = 0;     ///< handler id / slot index / round
  std::uint32_t size = 0;  ///< payload bytes / slot count / scaled metric
  std::int16_t b = -1;     ///< peer PE (src on recv, dest on send; -1 none)
  std::uint8_t ev = 0;     ///< Ev
  std::uint8_t c = 0;      ///< technique / chaos point / small flag
};
static_assert(sizeof(Record) == 32, "records are fixed-size binary");

class Ring {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit Ring(int pe, std::size_t capacity) : pe_(pe) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  int pe() const { return pe_; }

  /// Single-writer append; overwrites the oldest record when full. The
  /// head index is monotonic and masked on use, so the hot path is one
  /// count bump, one 32-byte store, and one increment — drop-oldest and
  /// the dropped counter fall out of `head_ - capacity` on the read side.
  /// (Non-temporal stores were tried here and measured ~10x WORSE on this
  /// host: emits are temporally sparse, so the write-combining buffers
  /// flush as partial lines instead of amortizing — plain cached stores
  /// plus the hardware prefetcher win for a sequential ring.)
  void write(const Record& r) {
    ++counts_[r.ev];
    buf_[head_ & mask_] = r;
    ++head_;
  }

  /// Retained records, oldest first. Reader-side only (post-quiescence).
  std::size_t size() const {
    return head_ < buf_.size() ? static_cast<std::size_t>(head_)
                               : buf_.size();
  }
  const Record& at(std::size_t i) const {
    return buf_[(head_ - size() + i) & mask_];
  }

  std::uint64_t dropped() const {
    return head_ > buf_.size() ? head_ - buf_.size() : 0;
  }
  /// Emitted-event count per type — counted at write time, so it is
  /// independent of how many records wrapped out of the ring.
  std::uint64_t count(Ev ev) const {
    return counts_[static_cast<std::uint8_t>(ev)];
  }
  std::uint64_t emitted() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : counts_) n += c;
    return n;
  }

  /// Per-PE flow-id sequence: unique machine-wide because the PE index is
  /// folded into the high bits (PE 0 ⇒ prefix 1, never 0 = "no flow").
  std::uint64_t next_flow() {
    return (static_cast<std::uint64_t>(pe_ + 1) << 40) | ++flow_seq_;
  }

 private:
  std::vector<Record> buf_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  ///< monotonic write index, masked on use
  std::uint64_t flow_seq_ = 0;
  std::uint64_t counts_[kEvCount] = {};
  int pe_ = -1;
};

}  // namespace mfc::trace
