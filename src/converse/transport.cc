#include "converse/transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "converse/machine.h"
#include "converse/shmring.h"
#include "trace/probe.h"
#include "util/check.h"

namespace mfc::converse::transport {

namespace {

using metrics::Counter;
using wire::Kind;

// Wire-span trace codes (Record.a of kWireSendBegin/End): which path
// carried the message. The exporter names the span "wire-send:<code name>",
// so both edges carry it for the end to close its begin.
constexpr std::uint32_t kTraceEager = 0;
constexpr std::uint32_t kTraceChunk = 1;
constexpr std::uint32_t kTraceRdv = 2;

char* payload_ptr(Message* m) { return m->payload.data(); }

/// Sub-spans covering [off, off+len) of a span list (chunking).
std::vector<wire::Span> slice_spans(const wire::Span* spans, std::size_t n,
                                    std::uint64_t off, std::uint64_t len) {
  std::vector<wire::Span> out;
  std::uint64_t skip = off, want = len;
  for (std::size_t i = 0; i < n && want > 0; ++i) {
    std::uint64_t l = spans[i].len;
    if (skip >= l) {
      skip -= l;
      continue;
    }
    std::uint64_t take = l - skip < want ? l - skip : want;
    out.push_back({static_cast<const char*>(spans[i].data) + skip,
                   static_cast<std::size_t>(take)});
    skip = 0;
    want -= take;
  }
  MFC_CHECK(want == 0);
  return out;
}

// ---------------------------------------------------------------------------
// Shared-memory ring transport.
//
// Message-driven receive: a sender publishes a frame and wakes the
// destination (its PE's parker in this process, else the destination
// process's doorbell); idle PEs drain their process's inbound rings before
// they park. The comm thread is a backstop parked on the doorbell with a
// bounded timeout: it drains what no PE picks up (frames for parked or dead
// PEs of a process no local sender wakes) and runs the idle hook.
//
// One consumer token per process serializes every reader of the rings, and
// guards all receive-side state with them: the Assembly slots, attach_peer's
// discard of a dead incarnation's frames, and the wire trace ring.
// ---------------------------------------------------------------------------

/// Comm-thread park bound: the idle hook (child reaping, respawn
/// peer-swaps) runs at least this often, and a frame nobody woke anyone
/// for waits at most this long.
constexpr long kCommParkUs = 1000;

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(const Options& o)
      : opt_(o), ppn_(o.npes / o.nprocs) {
    MFC_CHECK(o.npes >= 1 && o.nprocs >= 1 && o.npes % o.nprocs == 0);
    seg_.create(o.nprocs, o.npes, o.shm_ring_bytes);
  }

  ~ShmTransport() override {
    if (comm_.joinable()) {
      stop_local();
      comm_.join();
    }
  }

  void start(int my_proc, Hooks hooks) override {
    my_proc_ = my_proc;
    hooks_ = std::move(hooks);
    // Persistent producer views for this process's PEs (the view carries
    // the producer-local pending-tail shadow): views_[local_pe][dest_proc].
    views_.resize(static_cast<std::size_t>(ppn_) * opt_.nprocs);
    for (int lp = 0; lp < ppn_; ++lp)
      for (int d = 0; d < opt_.nprocs; ++d)
        views_[static_cast<std::size_t>(lp) * opt_.nprocs + d] =
            seg_.ring(d, my_proc * ppn_ + lp);
    const int nslots = opt_.npes + 1;
    for (int s = 0; s < nslots; ++s) {
      inbound_.push_back(seg_.ring(my_proc_, s));
      sinks_.push_back({this, s});
    }
    assembly_.resize(static_cast<std::size_t>(nslots));
    comm_ = std::thread([this] { comm_loop(); });
  }

  void send(const wire::Header& hdr, const wire::Span* spans, std::size_t n,
            std::function<void()> on_consumed) override {
    wire::Header h = hdr;
    const int dproc = h.dest_pe / ppn_;
    shm::RingView& rv = producer_view(h.src_pe, dproc);
    const std::uint64_t limit = max_chunk_payload();
    probe::emit(probe::Ev::kWireSendBegin, h.trace_flow,
                h.payload_len <= limit ? kTraceEager : kTraceChunk,
                probe::u32(h.payload_len),
                static_cast<std::int16_t>(h.dest_pe));
    if (h.payload_len <= limit) {
      h.kind = static_cast<std::uint32_t>(Kind::kEager);
      metrics::bump(Counter::kWireSentFrames);
      // Delayed publish: the frame's bytes are in the ring but invisible
      // until after on_consumed — the pack epilogue can evacuate the pages
      // the spans pointed into before the message can be delivered.
      if (!push_wait(rv, dproc, h, spans, n,
                     /*publish=*/on_consumed == nullptr)) {
        if (on_consumed) on_consumed();
        probe::emit(probe::Ev::kWireSendEnd);
        return;  // dropped post-stop
      }
      if (on_consumed) {
        on_consumed();
        publish(rv, dproc, h.dest_pe);
      }
      probe::emit(probe::Ev::kWireSendEnd, 0, 0,
                  static_cast<std::uint32_t>(h.payload_len +
                                             sizeof(wire::Header)));
      return;
    }
    // Chunked: every piece fits half the ring; the final chunk's publish is
    // delayed exactly like the single-frame case, so the message cannot
    // complete at the consumer before on_consumed runs.
    h.kind = static_cast<std::uint32_t>(Kind::kChunk);
    h.total_len = hdr.payload_len;
    std::uint64_t off = 0;
    std::uint64_t frames = 0;
    while (off < h.total_len) {
      const std::uint64_t len =
          h.total_len - off < limit ? h.total_len - off : limit;
      const bool last = off + len == h.total_len;
      std::vector<wire::Span> sub = slice_spans(spans, n, off, len);
      h.offset = off;
      h.payload_len = len;
      metrics::bump(Counter::kWireSentFrames);
      metrics::bump(Counter::kWireChunks);
      ++frames;
      if (!push_wait(rv, dproc, h, sub.data(), sub.size(),
                     /*publish=*/!(last && on_consumed != nullptr))) {
        if (on_consumed) on_consumed();
        probe::emit(probe::Ev::kWireSendEnd, 0, kTraceChunk);
        return;  // dropped post-stop; partial assembly freed at teardown
      }
      if (last && on_consumed) {
        on_consumed();
        publish(rv, dproc, h.dest_pe);
      }
      off += len;
    }
    probe::emit(probe::Ev::kWireSendEnd, 0, kTraceChunk,
                static_cast<std::uint32_t>(h.total_len +
                                           frames * sizeof(wire::Header)));
  }

  void send_proc_done(int src_pe) override {
    if (my_proc_ == 0) {
      hooks_.on_proc_done();
      return;
    }
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kProcDone);
    h.src_pe = src_pe;
    h.dest_pe = 0;
    shm::RingView& rv = producer_view(src_pe, /*dproc=*/0);
    push_wait(rv, 0, h, nullptr, 0, true);
  }

  void broadcast_stop() override {
    // Only the one thread that saw the last ProcDone gets here, so the
    // control slot keeps its single producer.
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kStop);
    for (int d = 0; d < opt_.nprocs; ++d) {
      if (d == my_proc_) continue;
      shm::RingView rv = seg_.ring(d, opt_.npes);
      while (!rv.try_push(h, nullptr, 0)) {
        seg_.doorbell(d).ring();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      notify(d, /*dest_pe=*/0);
    }
    hooks_.on_stop();
  }

  void stop_local() override {
    stop_.store(true, std::memory_order_release);
    seg_.doorbell(my_proc_).force();
  }

  void join() override {
    MFC_CHECK(stop_.load(std::memory_order_acquire));
    if (comm_.joinable()) comm_.join();
  }

  void send_ctl(const wire::Header& hdr) override {
    wire::Header h = hdr;
    h.kind = static_cast<std::uint32_t>(Kind::kFtCtl);
    h.payload_len = 0;
    const int dproc = h.dest_pe / ppn_;
    if (dproc == my_proc_) {
      if (hooks_.ft_ctl) hooks_.ft_ctl(h);
      return;
    }
    push_wait(producer_view(h.src_pe, dproc), dproc, h, nullptr, 0, true);
  }

  bool pes_drain() const override { return true; }

  bool drain_inbound() override {
    if (!inbound_pending() || !try_take()) return false;
    const std::uint64_t frames = drain_then_give();
    metrics::bump(Counter::kWirePeDrains, frames);
    return frames != 0;
  }

  bool inbound_pending() override {
    // A held token makes the flag the holder's business (drain_then_give
    // re-reads it after letting go), so waiters park instead of spinning on
    // a flag they cannot act on — a token holder that the OS preempts
    // would otherwise have every idle PE of its process spinning meanwhile.
    return pending_flag() && !consuming_.load(std::memory_order_seq_cst);
  }

  bool quiescent() override {
    // The rings live in shared memory, so one process can observe the
    // whole machine's in-flight bytes. A frame popped but not yet
    // enqueued is covered by the QD wave's unchanged-counts rule.
    for (int d = 0; d < opt_.nprocs; ++d)
      for (int s = 0; s <= opt_.npes; ++s)
        if (!seg_.ring(d, s).empty()) return false;
    return true;
  }

  void attach_peer(int proc, int fd, std::uint64_t gen) override {
    // The rings are crash-consistent (frames become visible only at the
    // tail publish), so the respawn keeps them: our consumers drain
    // whatever the old incarnation left unread, and its producers start
    // from the shared tails. Only receive-side state referring to the old
    // incarnation needs discarding: messages it half-shipped will never
    // see their remaining chunks. The comm thread holds the consumer token
    // around the idle hook this runs from.
    MFC_CHECK(fd < 0);
    MFC_CHECK(consuming_.load(std::memory_order_relaxed));
    (void)gen;
    for (int lp = 0; lp < ppn_; ++lp) {
      Assembly& a = assembly_[static_cast<std::size_t>(proc * ppn_ + lp)];
      if (a.m != nullptr) {
        hooks_.drop(a.m);
        a.m = nullptr;
      }
    }
  }

 private:
  /// One in-progress chunked (or about-to-be-enqueued eager) message per
  /// SPSC ring: the producer finishes one message before starting the next,
  /// so a slot never needs more than one.
  struct Assembly {
    Message* m = nullptr;
  };

  struct Sink {
    ShmTransport* t = nullptr;
    int slot = 0;
    /// Drops a half-assembled message left by a producer that died between
    /// chunks; only legal when peer loss is tolerated.
    void drop_stale(Assembly& a) {
      MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                    "new message before the previous chunk sequence ended");
      t->hooks_.drop(a.m);
      a.m = nullptr;
    }

    char* on_header(const wire::Header& h) {
      switch (static_cast<Kind>(h.kind)) {
        case Kind::kEager: {
          Assembly& a = t->assembly_[static_cast<std::size_t>(slot)];
          if (a.m != nullptr) drop_stale(a);
          a.m = t->hooks_.alloc(h, h.payload_len);
          return payload_ptr(a.m);
        }
        case Kind::kChunk: {
          Assembly& a = t->assembly_[static_cast<std::size_t>(slot)];
          if (h.offset == 0) {
            if (a.m != nullptr) drop_stale(a);
            a.m = t->hooks_.alloc(h, h.total_len);
            probe::emit(probe::Ev::kWireAsmBegin, h.trace_flow, 0,
                        static_cast<std::uint32_t>(h.total_len),
                        static_cast<std::int16_t>(h.src_pe));
          }
          if (a.m == nullptr) {
            // Orphan tail: the dead incarnation consumed this message's
            // head chunks before it was killed. Skip the bytes (the ring
            // stays framed — try_pop advances past unclaimed payloads).
            MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                          "chunk continuation with no assembly in progress");
            return nullptr;
          }
          return payload_ptr(a.m) + h.offset;
        }
        default:
          return nullptr;
      }
    }
    void on_frame(const wire::Header& h, char*) {
      Assembly& a = t->assembly_[static_cast<std::size_t>(slot)];
      switch (static_cast<Kind>(h.kind)) {
        case Kind::kEager:
          probe::emit(probe::Ev::kWireDeliver, h.trace_flow, 0,
                      static_cast<std::uint32_t>(h.payload_len),
                      static_cast<std::int16_t>(h.src_pe));
          t->hooks_.enqueue(a.m);
          a.m = nullptr;
          break;
        case Kind::kChunk:
          if (a.m != nullptr && h.offset + h.payload_len == h.total_len) {
            probe::emit(probe::Ev::kWireAsmEnd);
            probe::emit(probe::Ev::kWireDeliver, h.trace_flow, 0,
                        static_cast<std::uint32_t>(h.total_len),
                        static_cast<std::int16_t>(h.src_pe));
            t->hooks_.enqueue(a.m);
            a.m = nullptr;
          }
          break;
        case Kind::kProcDone:
          t->hooks_.on_proc_done();
          break;
        case Kind::kStop:
          t->hooks_.on_stop();
          break;
        case Kind::kFtCtl:
          if (t->hooks_.ft_ctl) t->hooks_.ft_ctl(h);
          break;
        default:
          MFC_CHECK_MSG(false, "unexpected frame kind on shm ring");
      }
    }
  };

  shm::RingView& producer_view(int src_pe, int dproc) {
    const int lp = src_pe - my_proc_ * ppn_;
    MFC_CHECK_MSG(lp >= 0 && lp < ppn_,
                  "wire sends must originate on a local PE thread");
    return views_[static_cast<std::size_t>(lp) * opt_.nprocs + dproc];
  }

  std::uint64_t max_chunk_payload() const {
    return opt_.shm_ring_bytes / 2 - sizeof(wire::Header);
  }

  bool try_take() {
    return !consuming_.load(std::memory_order_relaxed) &&
           !consuming_.exchange(true, std::memory_order_acquire);
  }
  void take() {
    while (!try_take()) std::this_thread::yield();
  }
  void give() { consuming_.store(false, std::memory_order_seq_cst); }

  bool pending_flag() {
    return seg_.doorbell(my_proc_).pending.load(std::memory_order_seq_cst) !=
           0;
  }

  /// Drains under the token, then lets it go. Waiters do not watch the
  /// pending flag while the token is held (inbound_pending), so frames
  /// published during the drain are the holder's to pick up: after the
  /// release it re-reads the flag and, if set, takes the token back — or
  /// another thread just took it and owns the same re-check. The seq_cst
  /// release → flag load pairs with a sender's flag store → parked load
  /// (shmring.h): either the holder sees the flag or the sender's wake
  /// finds the token free. Returns the frame count.
  std::uint64_t drain_then_give() {
    std::uint64_t frames = 0;
    do {
      frames += drain_held();
      give();
    } while (pending_flag() && try_take());
    return frames;
  }

  /// Pops every visible frame toward this process; returns the count.
  /// Caller holds the consumer token.
  std::uint64_t drain_held() {
    // Clear before the scan: a frame published after this store sets the
    // flag again, one published before it is visible to the scan. Cleared
    // after the final sweep too, else a late frame's flag would keep
    // drain_then_give re-taking the token forever.
    seg_.doorbell(my_proc_).pending.store(0, std::memory_order_seq_cst);
    if (closed_) return 0;
    probe::WireScope wire;
    std::uint64_t frames = 0;
    for (std::size_t s = 0; s < inbound_.size(); ++s)
      while (inbound_[s].try_pop(sinks_[s])) ++frames;
    return frames;
  }

  /// After a tail publish toward process `dproc`: flags its rings pending,
  /// then wakes whoever consumes the frame for `dest_pe` (see the Dekker
  /// note in shmring.h).
  void notify(int dproc, int dest_pe) {
    shm::Doorbell& bell = seg_.doorbell(dproc);
    bell.flag_pending();
    if (dproc == my_proc_) {
      hooks_.wake_pe(dest_pe);
    } else {
      bell.ring();
    }
  }

  void publish(shm::RingView& rv, int dproc, int dest_pe) {
    rv.publish();
    notify(dproc, dest_pe);
  }

  bool push_wait(shm::RingView& rv, int dproc, const wire::Header& h,
                 const wire::Span* s, std::size_t n, bool publish) {
    int waits = 0;
    while (!rv.try_push(h, s, n, publish)) {
      // Some consumer always drains a full ring; after stop the consumers
      // may be gone — give up (the drop is benign post-stop).
      ++waits;
      if (stop_.load(std::memory_order_relaxed) && waits > 2500) return false;
      if (dproc == my_proc_) {
        // Loopback: this process consumes the full ring, so take a turn
        // at draining it rather than sleep.
        if (!drain_inbound()) std::this_thread::yield();
      } else {
        seg_.doorbell(dproc).ring();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    if (publish) notify(dproc, h.dest_pe);
    return true;
  }

  void comm_loop() {
    shm::Doorbell& bell = seg_.doorbell(my_proc_);
    std::uint64_t rounds = 0;
    for (;;) {
      bool any = false;
      if (try_take()) any = drain_then_give() != 0;
      if (!any && stop_.load(std::memory_order_acquire)) break;
      // A busy comm thread must still service the machine's idle hook: the
      // respawn control channel (peer-swap orders) rides it, and a
      // recovery storm keeps the rings hot for its whole duration.
      bool tick = (++rounds & 63) == 0;
      if (!any) {
        // Frames another thread is draining are that thread's to finish:
        // it re-reads the pending flag after letting the token go.
        tick |= bell.park_for(kCommParkUs, [this] {
          return stop_.load(std::memory_order_relaxed) || inbound_pending();
        });
      }
      if (tick && hooks_.idle) {
        take();
        {
          probe::WireScope wire;
          hooks_.idle();
        }
        give();
      }
    }
    // Writers that completed concurrently with stop: one last sweep, then
    // free anything still half-assembled and close the rings to late PE
    // drains (whatever they left would have nobody to free it).
    take();
    drain_held();
    for (Assembly& a : assembly_) {
      if (a.m != nullptr) {
        hooks_.drop(a.m);
        a.m = nullptr;
      }
    }
    closed_ = true;
    give();
  }

  Options opt_;
  int ppn_ = 1;
  int my_proc_ = 0;
  shm::Segment seg_;
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  std::thread comm_;
  std::vector<shm::RingView> views_;
  /// Consumer token: held by the one thread of this process reading the
  /// rings; everything below it is guarded by it.
  std::atomic<bool> consuming_{false};
  std::vector<shm::RingView> inbound_;  ///< rings toward this process
  std::vector<Sink> sinks_;             ///< parallel to inbound_
  std::vector<Assembly> assembly_;      ///< parallel to inbound_
  bool closed_ = false;                 ///< final sweep done
};

// ---------------------------------------------------------------------------
// Socket/stream transport (AF_UNIX socketpairs; AF_INET-shaped framing).
// ---------------------------------------------------------------------------

/// FdIo variant for peer-loss-tolerant mode. Plain FdIo treats EPIPE as a
/// silent drop and polls a full send buffer forever; with a killable peer
/// both are wrong: a stalled buffer toward a dead process never drains, and
/// a reset mid-frame must surface so the frame can be retried on the
/// replacement stream. Every stall and reset bumps kWireRetries; the
/// POLLOUT patience is bounded so the comm path stays live.
class RobustIo {
 public:
  explicit RobustIo(int fd) : fd_(fd) {}

  std::ptrdiff_t read_some(void* dst, std::size_t n) {
    wire::FdIo io(fd_);
    return io.read_some(dst, n);
  }

  std::ptrdiff_t write_some(const iovec* iov, int iovcnt) {
    int stalls = 0;
    for (;;) {
      msghdr mh{};
      mh.msg_iov = const_cast<iovec*>(iov);
      mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
      ssize_t w = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
      if (w > 0) return w;
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        metrics::bump(Counter::kWireRetries);
        if (++stalls > kMaxStalls) return 0;
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      metrics::bump(Counter::kWireRetries);  // EPIPE / ECONNRESET
      return 0;
    }
  }

 private:
  static constexpr int kMaxStalls = 50;  ///< ~5 s of POLLOUT patience
  int fd_ = -1;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const Options& o)
      : opt_(o), ppn_(o.npes / o.nprocs) {
    MFC_CHECK(o.npes >= 1 && o.nprocs >= 1 && o.npes % o.nprocs == 0);
    if (o.nprocs == 1) {
      // Loopback: one pair; sends write sv[0], the comm thread reads sv[1].
      // Everything goes eager (the rendezvous control frames would have to
      // loop through the single comm thread that is also the data reader).
      int sv[2];
      MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
      loop_send_ = sv[0];
      loop_recv_ = sv[1];
    } else {
      ends_.assign(static_cast<std::size_t>(o.nprocs),
                   std::vector<int>(static_cast<std::size_t>(o.nprocs), -1));
      for (int i = 0; i < o.nprocs; ++i) {
        for (int j = i + 1; j < o.nprocs; ++j) {
          int sv[2];
          MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
          ends_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
              sv[0];
          ends_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
              sv[1];
        }
      }
    }
  }

  ~SocketTransport() override {
    if (comm_.joinable()) {
      stop_local();
      comm_.join();
    }
    close_all();
  }

  void start(int my_proc, Hooks hooks) override {
    my_proc_ = my_proc;
    hooks_ = std::move(hooks);
    send_fd_.assign(static_cast<std::size_t>(opt_.nprocs), -1);
    send_mu_ = std::make_unique<std::mutex[]>(
        static_cast<std::size_t>(opt_.nprocs));
    peer_gen_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(opt_.nprocs));
    if (opt_.nprocs == 1) {
      send_fd_[0] = loop_send_;
      recv_.push_back({loop_recv_, 0});
    } else {
      for (int q = 0; q < opt_.nprocs; ++q) {
        if (q == my_proc) continue;
        int fd = ends_[static_cast<std::size_t>(my_proc)]
                      [static_cast<std::size_t>(q)];
        send_fd_[static_cast<std::size_t>(q)] = fd;
        recv_.push_back({fd, q});
      }
      // Close every end that belongs to another process.
      for (int i = 0; i < opt_.nprocs; ++i) {
        if (i == my_proc) continue;
        for (int& fd : ends_[static_cast<std::size_t>(i)]) {
          if (fd >= 0) ::close(fd);
          fd = -1;
        }
      }
    }
    MFC_CHECK(::pipe(wake_pipe_) == 0);
    ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
    comm_ = std::thread([this] { comm_loop(); });
  }

  void send(const wire::Header& hdr, const wire::Span* spans, std::size_t n,
            std::function<void()> on_consumed) override {
    wire::Header h = hdr;
    const int dproc = h.dest_pe / ppn_;
    const bool rendezvous =
        opt_.nprocs > 1 && h.payload_len > opt_.rendezvous_bytes;
    probe::emit(probe::Ev::kWireSendBegin, h.trace_flow,
                rendezvous ? kTraceRdv : kTraceEager,
                probe::u32(h.payload_len),
                static_cast<std::int16_t>(h.dest_pe));
    if (!rendezvous) {
      h.kind = static_cast<std::uint32_t>(Kind::kEager);
      metrics::bump(Counter::kWireSentFrames);
      if (on_consumed) {
        // Stage first so on_consumed runs before any byte can reach the
        // destination (delivery-before-epilogue would race a same-process
        // install against the pack epilogue's evacuate).
        std::vector<char> staged(h.payload_len);
        wire::spans_gather(staged.data(), spans, n);
        on_consumed();
        wire::Span s{staged.data(), staged.size()};
        robust_write(dproc, h, &s, 1, /*can_wait=*/true);
      } else {
        robust_write(dproc, h, spans, n, /*can_wait=*/true);
      }
      probe::emit(probe::Ev::kWireSendEnd, 0, 0,
                  static_cast<std::uint32_t>(h.payload_len +
                                             sizeof(wire::Header)));
      return;
    }
    // Rendezvous: RTS → (receiver pre-sizes the landing payload) → CTS →
    // the blocked sender writev's its spans straight to the socket. The
    // image bytes touch no intermediate buffer on either side: writev
    // reads the live slots, and the reader lands bytes directly in the
    // destination envelope's payload.
    const std::uint64_t id =
        (static_cast<std::uint64_t>(my_proc_) << 48) |
        rdv_seq_.fetch_add(1, std::memory_order_relaxed);
    PendingSend ps;
    ps.dproc = dproc;
    {
      std::lock_guard<std::mutex> lk(rdv_mu_);
      pending_sends_[id] = &ps;
    }
    wire::Header rts = h;
    rts.kind = static_cast<std::uint32_t>(Kind::kRts);
    rts.payload_len = 0;
    rts.total_len = h.payload_len;
    rts.msg_id = id;
    robust_write(dproc, rts, nullptr, 0, /*can_wait=*/true);
    probe::emit(probe::Ev::kWireRts, id, 0,
                static_cast<std::uint32_t>(h.payload_len),
                static_cast<std::int16_t>(h.dest_pe));
    metrics::bump(Counter::kWireSentFrames);
    {
      std::unique_lock<std::mutex> lk(ps.mu);
      while (!ps.go && !ps.aborted) {
        ps.cv.wait_for(lk, std::chrono::milliseconds(100));
        if (!ps.go && !ps.aborted && stop_.load(std::memory_order_acquire))
          break;
      }
    }
    {
      std::lock_guard<std::mutex> lk(rdv_mu_);
      pending_sends_.erase(id);
    }
    if (ps.go) {
      wire::Header data = h;
      data.kind = static_cast<std::uint32_t>(Kind::kData);
      data.msg_id = id;
      data.total_len = h.payload_len;
      metrics::bump(Counter::kWireSentFrames);
      robust_write(dproc, data, spans, n, /*can_wait=*/true);
      probe::emit(probe::Ev::kWireRdvDone, id, 0,
                  static_cast<std::uint32_t>(h.payload_len));
    }
    if (on_consumed) on_consumed();
    probe::emit(probe::Ev::kWireSendEnd, 0, kTraceRdv,
                static_cast<std::uint32_t>(h.payload_len +
                                           3 * sizeof(wire::Header)));
  }

  void send_proc_done(int src_pe) override {
    if (my_proc_ == 0) {
      hooks_.on_proc_done();
      return;
    }
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kProcDone);
    h.src_pe = src_pe;
    h.dest_pe = 0;
    robust_write(0, h, nullptr, 0, /*can_wait=*/true);
  }

  void broadcast_stop() override {
    wire::Header h;
    h.kind = static_cast<std::uint32_t>(Kind::kStop);
    for (int d = 0; d < opt_.nprocs; ++d) {
      if (d == my_proc_) continue;
      robust_write(d, h, nullptr, 0, /*can_wait=*/true);
    }
    hooks_.on_stop();
  }

  void stop_local() override {
    stop_.store(true, std::memory_order_release);
    if (wake_pipe_[1] >= 0) {
      char b = 1;
      [[maybe_unused]] ssize_t r = ::write(wake_pipe_[1], &b, 1);
    }
    // Wake any sender still waiting for a CTS that will never come.
    std::lock_guard<std::mutex> lk(rdv_mu_);
    for (auto& [id, ps] : pending_sends_) {
      (void)id;
      std::lock_guard<std::mutex> plk(ps->mu);
      ps->cv.notify_all();
    }
  }

  void join() override {
    MFC_CHECK(stop_.load(std::memory_order_acquire));
    if (comm_.joinable()) comm_.join();
  }

  void send_ctl(const wire::Header& hdr) override {
    wire::Header h = hdr;
    h.kind = static_cast<std::uint32_t>(Kind::kFtCtl);
    h.payload_len = 0;
    const int dproc = h.dest_pe / ppn_;
    if (dproc == my_proc_) {
      if (hooks_.ft_ctl) hooks_.ft_ctl(h);
      return;
    }
    robust_write(dproc, h, nullptr, 0, /*can_wait=*/true);
  }

  bool quiescent() override {
    // AF_UNIX stream bytes buffer at the receiver, so FIONREAD on the
    // local recv fds sees everything written toward this process. A frame
    // mid-read implies its tail is still unwritten (the writer loops until
    // whole-frame completion), which keeps some PE thread busy and the QD
    // wave unquiet. Rendezvous handshakes park state on both sides; count
    // them explicitly.
    for (const auto& [fd, peer] : recv_) {
      (void)peer;
      if (fd < 0) continue;
      int avail = 0;
      if (::ioctl(fd, FIONREAD, &avail) == 0 && avail > 0) return false;
    }
    if (rdv_landing_.load(std::memory_order_acquire) != 0) return false;
    std::lock_guard<std::mutex> lk(rdv_mu_);
    return pending_sends_.empty();
  }

  void respawn_refresh(int proc, std::vector<int>& peer_fds) override {
    // Zygote-side: runs in the pristine pre-start image, where ends_ still
    // holds the full pairwise matrix. Closing the zygote's copies of the
    // dead pairs matters twice over — survivors only see EPIPE/EOF once no
    // live process holds the old write ends, and the respawn must inherit
    // only the fresh pairs. The survivor-side fds of those fresh pairs
    // stay open here (ends_ rows j) so a *later* respawn of a survivor
    // can still be forked with a complete matrix; they are closed when
    // this proc is refreshed again.
    MFC_CHECK(opt_.nprocs > 1 && comm_.joinable() == false);
    peer_fds.assign(static_cast<std::size_t>(opt_.nprocs), -1);
    for (int j = 0; j < opt_.nprocs; ++j) {
      if (j == proc) continue;
      int& a = ends_[static_cast<std::size_t>(proc)][static_cast<std::size_t>(j)];
      int& b = ends_[static_cast<std::size_t>(j)][static_cast<std::size_t>(proc)];
      if (a >= 0) ::close(a);
      if (b >= 0) ::close(b);
      int sv[2];
      MFC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
      a = sv[0];  // inherited by the respawned process at fork
      b = sv[1];  // shipped to survivor j over SCM_RIGHTS
      peer_fds[static_cast<std::size_t>(j)] = b;
    }
  }

  void attach_peer(int proc, int fd, std::uint64_t gen) override {
    MFC_CHECK(fd >= 0 && proc != my_proc_);
    {
      std::lock_guard<std::mutex> lk(send_mu_[proc]);
      int& alias = opt_.nprocs > 1
                       ? ends_[static_cast<std::size_t>(my_proc_)]
                              [static_cast<std::size_t>(proc)]
                       : loop_send_;
      if (send_fd_[static_cast<std::size_t>(proc)] >= 0)
        ::close(send_fd_[static_cast<std::size_t>(proc)]);
      alias = fd;  // keep close_all single-close
      send_fd_[static_cast<std::size_t>(proc)] = fd;
      // Publish last: a sender parked on the dead stream re-reads the fd
      // under send_mu_ once it observes the generation move.
      peer_gen_[static_cast<std::size_t>(proc)].store(
          gen, std::memory_order_release);
    }
    // Receive-side surgery is comm-thread-local state; attach_peer runs on
    // the comm thread (machine idle hook), so plain accesses are safe.
    for (std::size_t i = 0; i < recv_.size(); ++i) {
      if (recv_[i].second != proc) continue;
      recv_[i].first = fd;
      if (sinks_[i].cur != nullptr) {
        hooks_.drop(sinks_[i].cur);
        sinks_[i].cur = nullptr;
      }
      readers_[i].reset();
      ios_[i] = wire::FdIo(fd);
    }
    // Pre-sized rendezvous landings whose kData died with the sender.
    for (auto it = pending_recvs_.begin(); it != pending_recvs_.end();) {
      if (static_cast<int>(it->first >> 48) == proc) {
        hooks_.drop(it->second);
        rdv_landing_.fetch_sub(1, std::memory_order_acq_rel);
        it = pending_recvs_.erase(it);
      } else {
        ++it;
      }
    }
    // Senders parked on a CTS from the dead incarnation: abort them — the
    // message is lost (recovery's drain-mode QD absorbs the loss) but the
    // sender must still run its on_consumed epilogue and return.
    std::lock_guard<std::mutex> lk(rdv_mu_);
    for (auto& [id, ps] : pending_sends_) {
      (void)id;
      if (ps->dproc != proc) continue;
      std::lock_guard<std::mutex> plk(ps->mu);
      ps->aborted = true;
      ps->cv.notify_all();
    }
  }

 private:
  struct PendingSend {
    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    bool aborted = false;
    int dproc = -1;
  };

  /// Writes one frame toward `dproc`. Without peer-loss tolerance this is
  /// the plain blocking write (failures drop silently, matching the
  /// pre-FT contract). With tolerance, a failed write — EPIPE, reset, or
  /// a stalled buffer toward a dead process — parks *outside* the send
  /// lock until attach_peer publishes the replacement stream, then
  /// restarts the whole frame on it (partial bytes only ever reached the
  /// dead fd, so no survivor observes a torn frame). `can_wait` is false
  /// on the comm thread, which must stay live to apply the swap itself;
  /// there the frame is dropped instead.
  bool robust_write(int dproc, const wire::Header& h, const wire::Span* spans,
                    std::size_t n, bool can_wait) {
    if (!hooks_.tolerate_peer_loss) {
      std::lock_guard<std::mutex> lk(send_mu_[dproc]);
      wire::FdIo io(send_fd_[static_cast<std::size_t>(dproc)]);
      return wire::write_frame(io, h, spans, n);
    }
    for (;;) {
      std::uint64_t seen;
      {
        std::lock_guard<std::mutex> lk(send_mu_[dproc]);
        seen = peer_gen_[static_cast<std::size_t>(dproc)].load(
            std::memory_order_relaxed);
        RobustIo io(send_fd_[static_cast<std::size_t>(dproc)]);
        if (wire::write_frame(io, h, spans, n)) return true;
      }
      metrics::bump(Counter::kWireRetries);
      if (!can_wait || stop_.load(std::memory_order_acquire)) return false;
      int waited_ms = 0;
      while (peer_gen_[static_cast<std::size_t>(dproc)].load(
                 std::memory_order_acquire) == seen) {
        if (stop_.load(std::memory_order_acquire)) return false;
        MFC_CHECK_MSG(++waited_ms < 120000,
                      "socket: peer stream never replaced after loss");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  struct FdSink {
    SocketTransport* t = nullptr;
    int peer = 0;
    Message* cur = nullptr;

    char* on_header(const wire::Header& h) {
      switch (static_cast<Kind>(h.kind)) {
        case Kind::kEager:
          cur = t->hooks_.alloc(h, h.payload_len);
          return payload_ptr(cur);
        case Kind::kData: {
          // Landing buffer was pre-sized at kRts; bytes stream straight in.
          auto it = t->pending_recvs_.find(h.msg_id);
          if (it == t->pending_recvs_.end()) {
            // The kRts went to an incarnation that died before this data
            // frame; only legal under peer-loss tolerance. Sink the bytes
            // into reader scratch and drop the frame.
            MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                          "kData without a matching kRts");
            cur = nullptr;
            return nullptr;
          }
          cur = it->second;
          t->rdv_landing_.fetch_sub(1, std::memory_order_acq_rel);
          t->pending_recvs_.erase(it);
          return payload_ptr(cur);
        }
        default:
          return nullptr;
      }
    }

    void on_frame(const wire::Header& h, char*) {
      switch (static_cast<Kind>(h.kind)) {
        case Kind::kEager:
        case Kind::kData:
          if (cur == nullptr) break;  // orphan kData sunk to scratch
          probe::emit(probe::Ev::kWireDeliver, h.trace_flow, 0,
                      static_cast<std::uint32_t>(h.payload_len),
                      static_cast<std::int16_t>(h.src_pe));
          t->hooks_.enqueue(cur);
          cur = nullptr;
          break;
        case Kind::kRts: {
          Message* m = t->hooks_.alloc(h, h.total_len);
          auto [it, fresh] = t->pending_recvs_.emplace(h.msg_id, m);
          if (!fresh) {
            // A respawned sender restarts its rendezvous sequence, so its
            // ids can collide with a dead incarnation's abandoned entry.
            MFC_CHECK_MSG(t->hooks_.tolerate_peer_loss,
                          "duplicate rendezvous id");
            t->hooks_.drop(it->second);
            it->second = m;
          } else {
            t->rdv_landing_.fetch_add(1, std::memory_order_acq_rel);
          }
          wire::Header cts;
          cts.kind = static_cast<std::uint32_t>(Kind::kCts);
          cts.msg_id = h.msg_id;
          const int sproc = h.src_pe / t->ppn_;
          // can_wait=false: the comm thread must never park on a dead
          // stream — it is the thread that installs the replacement.
          t->robust_write(sproc, cts, nullptr, 0, /*can_wait=*/false);
          probe::emit(probe::Ev::kWireCts, h.msg_id, 0,
                      static_cast<std::uint32_t>(h.total_len),
                      static_cast<std::int16_t>(h.src_pe));
          break;
        }
        case Kind::kCts: {
          std::lock_guard<std::mutex> lk(t->rdv_mu_);
          auto it = t->pending_sends_.find(h.msg_id);
          if (it != t->pending_sends_.end()) {
            std::lock_guard<std::mutex> plk(it->second->mu);
            it->second->go = true;
            it->second->cv.notify_all();
          }
          break;
        }
        case Kind::kProcDone:
          t->hooks_.on_proc_done();
          break;
        case Kind::kStop:
          t->hooks_.on_stop();
          break;
        case Kind::kFtCtl:
          if (t->hooks_.ft_ctl) t->hooks_.ft_ctl(h);
          break;
        default:
          MFC_CHECK_MSG(false, "unexpected frame kind on socket");
      }
    }
  };

  void comm_loop() {
    probe::WireScope wire;
    const std::size_t nfd = recv_.size();
    // Receive state lives in members so attach_peer (same thread, via the
    // idle hook) can swap a respawned peer's reader/io in place.
    readers_.assign(nfd, wire::Reader());
    sinks_.assign(nfd, FdSink());
    ios_.assign(nfd, wire::FdIo());
    for (std::size_t i = 0; i < nfd; ++i) {
      sinks_[i] = {this, recv_[i].second, nullptr};
      ios_[i] = wire::FdIo(recv_[i].first);
      if (hooks_.tolerate_peer_loss) readers_[i].set_tolerate_eof(true);
    }
    std::vector<pollfd> pfds(nfd + 1);
    for (;;) {
      for (std::size_t i = 0; i < nfd; ++i)
        pfds[i] = {recv_[i].first, POLLIN, 0};
      pfds[nfd] = {wake_pipe_[0], POLLIN, 0};
      ::poll(pfds.data(), pfds.size(), 100);
      if (pfds[nfd].revents & POLLIN) {
        char buf[64];
        while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
        }
      }
      bool eof_all = true;
      for (std::size_t i = 0; i < nfd; ++i) {
        if (recv_[i].first < 0) continue;
        wire::PumpResult r = readers_[i].pump(ios_[i], sinks_[i]);
        if (r == wire::PumpResult::kEof) {
          // Peer exited. Under FT a truncated frame is dropped here and
          // attach_peer later installs the respawn's stream; otherwise the
          // parent's idle hook polices abnormal exits.
          if (!readers_[i].idle()) {
            readers_[i].reset();
            if (sinks_[i].cur != nullptr) {
              hooks_.drop(sinks_[i].cur);
              sinks_[i].cur = nullptr;
            }
          }
          recv_[i].first = -1;
        } else {
          eof_all = false;
        }
      }
      if (stop_.load(std::memory_order_acquire)) {
        // Drain whatever arrived alongside the stop order, then leave.
        bool drained = true;
        for (std::size_t i = 0; i < nfd; ++i) {
          if (recv_[i].first >= 0 && !readers_[i].idle()) drained = false;
        }
        if (drained || eof_all) break;
      }
      if (hooks_.idle) hooks_.idle();
    }
    // Envelopes pre-sized for rendezvous data that never arrived.
    for (auto& [id, m] : pending_recvs_) {
      (void)id;
      hooks_.drop(m);
    }
    pending_recvs_.clear();
  }

  void close_all() {
    auto cl = [](int& fd) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    };
    cl(loop_send_);
    cl(loop_recv_);
    for (auto& row : ends_)
      for (int& fd : row) cl(fd);
    for (int& fd : send_fd_) fd = -1;  // aliases of ends_/loop fds
    cl(wake_pipe_[0]);
    cl(wake_pipe_[1]);
  }

  Options opt_;
  int ppn_ = 1;
  int my_proc_ = 0;
  int loop_send_ = -1;
  int loop_recv_ = -1;
  std::vector<std::vector<int>> ends_;
  std::vector<int> send_fd_;
  std::unique_ptr<std::mutex[]> send_mu_;
  /// Per-peer stream generation; bumped by attach_peer when a respawned
  /// peer's fresh socket replaces a dead one. Senders parked on a failed
  /// write resume when they observe it move.
  std::unique_ptr<std::atomic<std::uint64_t>[]> peer_gen_;
  std::vector<std::pair<int, int>> recv_;  ///< (fd, peer proc)
  int wake_pipe_[2] = {-1, -1};
  Hooks hooks_;
  std::atomic<bool> stop_{false};
  std::thread comm_;
  std::mutex rdv_mu_;
  std::unordered_map<std::uint64_t, PendingSend*> pending_sends_;
  /// Comm-thread-only (one comm thread handles every peer fd).
  std::unordered_map<std::uint64_t, Message*> pending_recvs_;
  /// Mirror of pending_recvs_.size() readable off-thread (quiescent()).
  std::atomic<int> rdv_landing_{0};
  std::atomic<std::uint64_t> rdv_seq_{1};
  /// Comm-thread receive state (members so attach_peer can reach them).
  std::vector<wire::Reader> readers_;
  std::vector<FdSink> sinks_;
  std::vector<wire::FdIo> ios_;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const Options& options) {
  return std::make_unique<ShmTransport>(options);
}

std::unique_ptr<Transport> make_socket_transport(const Options& options) {
  return std::make_unique<SocketTransport>(options);
}

}  // namespace mfc::converse::transport
