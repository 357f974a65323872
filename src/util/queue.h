// Inter-PE message channel for the converse machine layer.
//
// IntrusiveMpscChannel: multiple-producer single-consumer channel of
// pointer items. Producers are remote PEs (kernel threads) delivering
// messages; the consumer is the owning PE's scheduler loop. The
// implementation is lock-free on the hot path: producers CAS onto a LIFO
// "inbox" list, and the consumer swaps the whole inbox out in one exchange
// and reverses it into a FIFO batch it then serves privately (the
// "swap-the-deque" batched MPSC). A mutex + condition variable pair survives
// only as an idle/parking backstop: the consumer parks after a bounded
// spin, and producers skip the notify syscall entirely unless a consumer is
// actually parked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace mfc {

namespace detail {

inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations before a consumer parks. On a single-CPU host spinning
/// only steals cycles from the producer, so park immediately.
inline int spin_iters_before_park() {
  static const int iters = std::thread::hardware_concurrency() > 1 ? 128 : 0;
  return iters;
}

/// sched_yield rounds between spinning and parking. On an oversubscribed
/// host a yield hands the core straight to a producer, which usually makes
/// data appear without paying the futex sleep/wake round trip.
constexpr int kYieldRoundsBeforePark = 4;

/// Consumer parking for the MPSC channel. The handshake is
/// Dekker-style: the consumer publishes `parked_` (seq_cst) and then
/// re-checks the queue; a producer publishes its item (seq_cst RMW) and then
/// reads `parked_`. One of the two must observe the other, so a push can
/// never slip between the consumer's last empty-check and its sleep.
/// `signal_` is sticky so a wake() that arrives while no consumer is parked
/// still satisfies the next park() immediately (shutdown safety).
class Parker {
 public:
  /// Producer side, called after publishing an item. No-op (one atomic
  /// load, no syscall) unless a consumer is parked — and the exchange
  /// claims the notify, so a burst of pushes against a parked consumer
  /// costs one futex wake total instead of one per push.
  void unpark_if_parked() {
    if (!parked_.load(std::memory_order_seq_cst)) return;
    if (!parked_.exchange(false, std::memory_order_seq_cst)) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      signal_ = true;
    }
    cv_.notify_one();
  }

  /// Forced wake (shutdown / "work appeared locally"). Sticky; skips the
  /// notify when nobody is parked.
  void wake() {
    bool was_parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      signal_ = true;
      was_parked = parked_.load(std::memory_order_relaxed);
    }
    if (was_parked) cv_.notify_one();
  }

  /// Consumer side: blocks until `nonempty()` holds, a producer unparks us,
  /// or a sticky wake is pending. The caller re-checks its queue afterward.
  template <typename NonEmpty>
  void park(NonEmpty&& nonempty) {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.store(true, std::memory_order_seq_cst);
    if (!nonempty()) {
      cv_.wait(lock, [&] { return signal_ || nonempty(); });
    }
    parked_.store(false, std::memory_order_relaxed);
    signal_ = false;
  }

  /// park() with a deadline: returns after `micros` even if nothing
  /// arrived. The failure detector's heartbeat loop on PE 0 uses this so an
  /// idle machine still ticks pings/timeouts; the same Dekker handshake
  /// keeps pushes from slipping past the sleep.
  template <typename NonEmpty>
  void park_for(std::uint64_t micros, NonEmpty&& nonempty) {
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.store(true, std::memory_order_seq_cst);
    if (!nonempty()) {
      cv_.wait_for(lock, std::chrono::microseconds(micros),
                   [&] { return signal_ || nonempty(); });
    }
    parked_.store(false, std::memory_order_relaxed);
    signal_ = false;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> parked_{false};
  bool signal_ = false;
};

}  // namespace detail

/// Intrusive MPSC channel for pointer items that carry their own link
/// (T must expose a `T* next` member). Zero allocation per push — the links
/// live in the items themselves, which the converse layer recycles through
/// per-PE message pools.
template <typename T>
class IntrusiveMpscChannel {
 public:
  IntrusiveMpscChannel() = default;
  IntrusiveMpscChannel(const IntrusiveMpscChannel&) = delete;
  IntrusiveMpscChannel& operator=(const IntrusiveMpscChannel&) = delete;

  /// Lock-free; callable from any thread. The channel borrows item->next
  /// until the item is popped.
  void push(T* item) {
    T* head = inbox_.load(std::memory_order_relaxed);
    do {
      item->next = head;
    } while (!inbox_.compare_exchange_weak(head, item,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
    parker_.unpark_if_parked();
  }

  /// Consumer thread only; nullptr when empty.
  T* try_pop() {
    if (batch_ == nullptr) {
      T* chain = inbox_.exchange(nullptr, std::memory_order_acquire);
      while (chain != nullptr) {  // reverse newest-first into FIFO order
        T* next = chain->next;
        chain->next = batch_;
        batch_ = chain;
        chain = next;
      }
      if (batch_ == nullptr) return nullptr;
    }
    T* item = batch_;
    batch_ = item->next;
    item->next = nullptr;
    return item;
  }

  /// Blocking pop with bounded spin + parking; nullptr after a wake() or
  /// spurious unpark with no data. Consumer thread only.
  T* pop_wait() { return pop_wait([] { return false; }); }

  /// pop_wait() that also gives up (returns nullptr) once `also_ready()`
  /// holds: work the consumer polls from elsewhere, e.g. the shm wire's
  /// inbound rings. The park predicate includes it, so a producer of that
  /// work must publish it seq_cst and then call unpark_if_parked().
  template <typename AlsoReady>
  T* pop_wait(AlsoReady&& also_ready) {
    if (T* item = try_pop()) return item;
    for (int i = detail::spin_iters_before_park(); i > 0; --i) {
      detail::cpu_relax();
      if (T* item = try_pop()) return item;
      if (also_ready()) return nullptr;
    }
    for (int i = 0; i < detail::kYieldRoundsBeforePark; ++i) {
      std::this_thread::yield();
      if (T* item = try_pop()) return item;
      if (also_ready()) return nullptr;
    }
    parker_.park([&] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr ||
             also_ready();
    });
    return try_pop();
  }

  /// pop_wait() with a parking deadline: returns nullptr once `micros`
  /// elapse with no data (or on a wake/spurious unpark). Lets an otherwise
  /// idle consumer loop run periodic work (heartbeats) without busy-waiting.
  T* pop_wait_for(std::uint64_t micros) {
    return pop_wait_for(micros, [] { return false; });
  }

  /// pop_wait_for() with the same `also_ready()` escape as pop_wait().
  template <typename AlsoReady>
  T* pop_wait_for(std::uint64_t micros, AlsoReady&& also_ready) {
    if (T* item = try_pop()) return item;
    for (int i = detail::spin_iters_before_park(); i > 0; --i) {
      detail::cpu_relax();
      if (T* item = try_pop()) return item;
      if (also_ready()) return nullptr;
    }
    parker_.park_for(micros, [&] {
      return inbox_.load(std::memory_order_seq_cst) != nullptr ||
             also_ready();
    });
    return try_pop();
  }

  /// Wakes the consumer if it is parked; one load otherwise. For producers
  /// of `also_ready()` work, after their seq_cst publish.
  void unpark_if_parked() { parker_.unpark_if_parked(); }

  void wake() { parker_.wake(); }

  /// True when the consumer has nothing pending (private batch and inbox
  /// both empty). Consumer thread only; used to gate the self-send
  /// fast path so local delivery cannot overtake queued messages.
  bool consumer_empty() const {
    return batch_ == nullptr &&
           inbox_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  alignas(64) std::atomic<T*> inbox_{nullptr};
  // Consumer-private drained chain in FIFO order.
  alignas(64) T* batch_ = nullptr;
  detail::Parker parker_;
};

}  // namespace mfc
