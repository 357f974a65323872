// SPSC byte rings in a shared-memory segment — the shm transport's wire.
//
// The segment holds a grid of single-producer single-consumer rings:
// rings[dest_proc][producer], where `producer` is either a PE id (that PE's
// kernel thread is the only writer) or the extra per-destination control
// slot. The control slot's single writer is process 0's broadcast_stop(),
// called once, by whichever thread counts procs_done up to nprocs: the
// comm thread, a draining PE, or the PE that finished last. The consumer
// side of every ring targeting process k belongs to whichever thread of k
// holds k's consumer token (see transport.cc): an idle PE draining on its
// way to park, a producer whose loopback ring is full, or the comm thread's
// backstop. The token keeps one reader per ring at a time, which is what
// lets the ring reuse the queue.h discipline — release/acquire head/tail on
// separate cache lines, no CAS, no locks — across address spaces.
//
// A ring carries whole wire frames (Header + payload). The producer only
// publishes `tail` after a complete frame is in place, so the consumer never
// observes a torn frame; messages larger than the ring are chunked by the
// transport into kChunk frames that each fit. `try_push(..., publish=false)`
// writes the frame but delays the tail store until `publish()` — the
// transport uses this to run a sender's on_consumed callback (e.g. the
// destructive migration-pack epilogue) after the bytes are copied out but
// before the frame becomes visible to the consumer.
//
// The tail publish is seq_cst, and after it the producer sets the
// destination's pending flag (Doorbell below) and then reads the receiver's
// parked flag. A parking receiver sets parked and then reads the pending
// flag. That is a Dekker pair: either the receiver sees the frame or the
// producer sees it parked and wakes it. The wake goes to the destination
// PE's parker (same process) or to the destination process's doorbell
// (another process). A receiver whose consumer token is held by another
// thread does not count the flag as work; the holder re-reads the flag
// after it lets the token go (transport.cc, drain_then_give).
//
// The segment is created with shm_open + ftruncate + mmap(MAP_SHARED) before
// the machine forks, and shm_unlink'd immediately — children inherit the
// mapping; nothing persists if a process dies.
#pragma once

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "converse/wire.h"
#include "util/check.h"

namespace mfc::converse::shm {

/// Per-ring control block. head/tail are free-running byte counters
/// (consumer owns head, producer owns tail); they sit on separate cache
/// lines so the producer's tail stores never bounce the consumer's head
/// line, matching the queue.h layout discipline.
struct RingCtrl {
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
  alignas(64) std::uint64_t capacity;  ///< power of two, bytes
};
static_assert(sizeof(RingCtrl) == 192);

/// View over one ring inside the segment (ctrl block + data bytes).
class RingView {
 public:
  RingView() = default;
  RingView(RingCtrl* ctrl, char* data)
      : ctrl_(ctrl),
        data_(data),
        pending_tail_(ctrl->tail.load(std::memory_order_relaxed)) {}

  bool valid() const { return ctrl_ != nullptr; }
  std::uint64_t capacity() const { return ctrl_->capacity; }

  /// Largest frame payload this ring can carry in one piece.
  std::uint64_t max_payload() const {
    return ctrl_->capacity - sizeof(wire::Header);
  }

  /// Producer side. Copies header + spans into the ring; returns false if
  /// the frame does not fit right now. With publish=false the tail store is
  /// deferred to publish() — at most one unpublished frame may be pending.
  bool try_push(const wire::Header& h, const wire::Span* spans,
                std::size_t nspans, bool publish = true) {
    const std::uint64_t need = sizeof(wire::Header) + h.payload_len;
    MFC_CHECK_MSG(need <= ctrl_->capacity, "shmring: frame exceeds ring");
    const std::uint64_t head = ctrl_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = pending_tail_;
    if (ctrl_->capacity - (tail - head) < need) return false;
    put(tail, &h, sizeof h);
    std::uint64_t at = tail + sizeof h;
    for (std::size_t i = 0; i < nspans; ++i) {
      put(at, spans[i].data, spans[i].len);
      at += spans[i].len;
    }
    pending_tail_ = tail + need;
    if (publish) this->publish();
    return true;
  }

  /// Makes the pending frame(s) visible to the consumer. seq_cst: the
  /// producer's wake check that follows must not be reordered before it.
  void publish() {
    ctrl_->tail.store(pending_tail_, std::memory_order_seq_cst);
  }

  /// Consumer side: pops one frame if available. Sink protocol matches
  /// wire::Reader (on_header returns the payload destination or nullptr
  /// for none-needed; on_frame sees the filled buffer).
  template <typename Sink>
  bool try_pop(Sink& sink) {
    const std::uint64_t head = ctrl_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = ctrl_->tail.load(std::memory_order_acquire);
    if (tail == head) return false;
    wire::Header h;
    get(head, &h, sizeof h);
    char* dst = sink.on_header(h);
    if (dst != nullptr && h.payload_len != 0)
      get(head + sizeof h, dst, h.payload_len);
    ctrl_->head.store(head + sizeof h + h.payload_len,
                      std::memory_order_release);
    sink.on_frame(h, dst);
    return true;
  }

  bool empty() const {
    return ctrl_->tail.load(std::memory_order_acquire) ==
           ctrl_->head.load(std::memory_order_relaxed);
  }

  /// Producer-side init after attach (called once, pre-fork).
  void init(std::uint64_t capacity) {
    ctrl_->head.store(0, std::memory_order_relaxed);
    ctrl_->tail.store(0, std::memory_order_relaxed);
    ctrl_->capacity = capacity;
    pending_tail_ = 0;
  }

 private:
  void put(std::uint64_t pos, const void* src, std::size_t n) {
    const std::uint64_t mask = ctrl_->capacity - 1;
    std::uint64_t off = pos & mask;
    std::uint64_t first = ctrl_->capacity - off;
    if (first >= n) {
      std::memcpy(data_ + off, src, n);
    } else {
      std::memcpy(data_ + off, src, first);
      std::memcpy(data_, static_cast<const char*>(src) + first, n - first);
    }
  }
  void get(std::uint64_t pos, void* dst, std::size_t n) {
    const std::uint64_t mask = ctrl_->capacity - 1;
    std::uint64_t off = pos & mask;
    std::uint64_t first = ctrl_->capacity - off;
    if (first >= n) {
      std::memcpy(dst, data_ + off, n);
    } else {
      std::memcpy(dst, data_ + off, first);
      std::memcpy(static_cast<char*>(dst) + first, data_, n - first);
    }
  }

  RingCtrl* ctrl_ = nullptr;
  char* data_ = nullptr;
  /// Producer-local shadow of tail (includes unpublished frames). Only the
  /// single producer reads/writes it, so it lives in the view, not the
  /// shared ctrl block.
  std::uint64_t pending_tail_ = 0;
};

/// Per-process wake state, shared across processes. `pending` summarizes
/// the process's inbound rings so a PE's park predicate is one load, not a
/// scan: every producer sets it after a publish, and a drainer clears it
/// before it scans. `seq` is a futex word (FUTEX_WAKE without the private
/// flag): the process's comm thread parks on it, and a producer in another
/// process rings it after each publish. Both cost one load per send unless
/// the flag is clear or the comm thread is parked.
struct Doorbell {
  alignas(64) std::atomic<std::uint32_t> seq;  ///< the futex word
  /// 1 while the comm thread is parked (a flag, not a count: one waiter per
  /// process, and a respawned incarnation resets what a dead one left).
  std::atomic<std::uint32_t> parked;
  /// 1 once a frame was published since the last drain began. A frame
  /// published while the flag was already set is seen by the scan that
  /// follows the clear (seq_cst: tail store → flag load vs. flag clear →
  /// tail load).
  std::atomic<std::uint32_t> pending;

  /// Producer side, after a tail publish and before any wake.
  void flag_pending() {
    if (pending.load(std::memory_order_seq_cst) == 0) {
      pending.store(1, std::memory_order_seq_cst);
    }
  }

  /// Producer side, after a tail publish.
  void ring() {
    if (parked.load(std::memory_order_seq_cst) != 0) force();
  }

  /// Unconditional wake (stop).
  void force() {
    seq.fetch_add(1, std::memory_order_seq_cst);
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&seq), FUTEX_WAKE,
              INT_MAX, nullptr, nullptr, 0);
  }

  /// Parks until rung or `micros` elapse, unless `ready()` already holds
  /// once `parked` is published. Returns true on timeout.
  template <typename Ready>
  bool park_for(long micros, Ready&& ready) {
    parked.store(1, std::memory_order_seq_cst);
    const std::uint32_t s = seq.load(std::memory_order_seq_cst);
    bool timed_out = false;
    if (!ready()) {
      timespec ts{micros / 1000000, (micros % 1000000) * 1000};
      timed_out = ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&seq),
                            FUTEX_WAIT, s, &ts, nullptr, 0) != 0 &&
                  errno == ETIMEDOUT;
    }
    parked.store(0, std::memory_order_relaxed);
    return timed_out;
  }
};
static_assert(sizeof(Doorbell) == 64);

/// The whole segment: nprocs × (npes + 1) rings, then one Doorbell per
/// process. Ring (dest_proc, producer) carries frames from `producer` (a
/// PE, or the control slot producer == npes) to process dest_proc.
class Segment {
 public:
  Segment() = default;
  ~Segment() { unmap(); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  static std::size_t ring_footprint(std::size_t ring_bytes) {
    return sizeof(RingCtrl) + ring_bytes;
  }

  /// Creates and maps the segment (pre-fork). `ring_bytes` must be a power
  /// of two. The shm name is derived from the pid so concurrent test
  /// binaries do not collide; the name is unlinked before returning.
  void create(int nprocs, int npes, std::size_t ring_bytes) {
    MFC_CHECK_MSG((ring_bytes & (ring_bytes - 1)) == 0,
                  "shm_ring_bytes must be a power of two");
    nprocs_ = nprocs;
    npes_ = npes;
    ring_bytes_ = ring_bytes;
    rings_bytes_ = static_cast<std::size_t>(nprocs) * (npes + 1) *
                   ring_footprint(ring_bytes);
    bytes_ = rings_bytes_ + static_cast<std::size_t>(nprocs) * sizeof(Doorbell);
    char name[64];
    std::snprintf(name, sizeof name, "/mfc-ring-%d-%p", ::getpid(),
                  static_cast<void*>(this));
    int fd = ::shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
    MFC_CHECK_MSG(fd >= 0, "shm_open failed");
    ::shm_unlink(name);
    MFC_CHECK_MSG(::ftruncate(fd, static_cast<off_t>(bytes_)) == 0,
                  "ftruncate on shm segment failed");
    base_ = static_cast<char*>(::mmap(nullptr, bytes_,
                                      PROT_READ | PROT_WRITE, MAP_SHARED,
                                      fd, 0));
    ::close(fd);
    MFC_CHECK_MSG(base_ != MAP_FAILED, "mmap of shm segment failed");
    for (int d = 0; d < nprocs; ++d)
      for (int p = 0; p <= npes; ++p) ring(d, p).init(ring_bytes);
    // ftruncate zero-fills, so every doorbell starts at seq 0, not parked.
  }

  /// Ring carrying frames from `producer` to process `dest_proc`.
  /// `producer` in [0, npes); `npes` selects the control slot.
  RingView ring(int dest_proc, int producer) {
    std::size_t idx =
        static_cast<std::size_t>(dest_proc) * (npes_ + 1) + producer;
    char* at = base_ + idx * ring_footprint(ring_bytes_);
    return RingView(reinterpret_cast<RingCtrl*>(at), at + sizeof(RingCtrl));
  }

  /// Wake word of process `proc`'s comm thread.
  Doorbell& doorbell(int proc) {
    return reinterpret_cast<Doorbell*>(base_ + rings_bytes_)[proc];
  }

  int nprocs() const { return nprocs_; }
  int npes() const { return npes_; }

  void unmap() {
    if (base_ != nullptr && base_ != MAP_FAILED) ::munmap(base_, bytes_);
    base_ = nullptr;
  }

 private:
  char* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t rings_bytes_ = 0;
  std::size_t ring_bytes_ = 0;
  int nprocs_ = 0;
  int npes_ = 0;
};

}  // namespace mfc::converse::shm
