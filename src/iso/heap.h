// Per-thread heap carved out of isomalloc slots.
//
// All allocator metadata (block headers, arena headers, byte accounting)
// lives *inside* the thread's slots. Because a slot keeps the same virtual
// address after migration, copying the slot bytes moves the entire heap —
// including every internal pointer — without any fixup. This is what lets
// the runtime "override the system malloc/free routines to use isomalloc
// when called within a thread" (paper §3.4.2) and still migrate unmodified
// code.
#pragma once

#include <cstddef>
#include <vector>

#include "iso/region.h"

namespace mfc::iso {

class ThreadHeap {
 public:
  /// `birth_pe` selects the strip slots are drawn from. The heap grows by
  /// acquiring more slots on demand; big allocations get contiguous
  /// multi-slot blocks.
  explicit ThreadHeap(int birth_pe);
  ~ThreadHeap();
  ThreadHeap(const ThreadHeap&) = delete;
  ThreadHeap& operator=(const ThreadHeap&) = delete;

  void* malloc(std::size_t size);
  void free(void* p);
  void* realloc(void* p, std::size_t size);
  void* calloc(std::size_t nmemb, std::size_t size);

  /// True when `p` lies inside one of this heap's slots.
  bool owns(const void* p) const;

  /// Total slot bytes held (physical footprint upper bound).
  std::size_t footprint() const;
  /// Bytes currently handed out to the application (summed from in-slot
  /// arena accounting, so it survives migration).
  std::size_t live_bytes() const;
  std::size_t allocation_count() const;

  /// The slot runs backing this heap (one entry per arena), in acquisition
  /// order. Migration packs their raw contents.
  const std::vector<SlotId>& slots() const { return slots_; }

  /// Reconstructs a heap handle around already-installed slots (the
  /// destination side of a migration). All allocator state is read back out
  /// of the slot memory itself.
  static ThreadHeap* reattach(int birth_pe, std::vector<SlotId> slots);

  /// Disowns the slots (source side of a migration, after they were packed
  /// and evacuated): the destructor will no longer release them.
  void abandon() { slots_.clear(); arenas_.clear(); }

  /// Frees a pointer without knowing which heap it came from (the block
  /// header is self-describing). Used by the routed free below.
  static void free_anywhere(void* p);

  /// Payload size recorded in the (self-describing) block header of an
  /// iso-heap pointer.
  static std::size_t payload_size(const void* p);

 private:
  ThreadHeap(int birth_pe, std::vector<SlotId> slots);  // reattach path

  struct Block;        // boundary-tag block header (lives in slot memory)
  struct ArenaHeader;  // per-slot-run arena header (lives in slot memory)

  ArenaHeader* add_arena(std::uint32_t slot_count);
  static void* malloc_from(ArenaHeader* arena, std::size_t size);

  int birth_pe_;
  std::vector<SlotId> slots_;
  std::vector<ArenaHeader*> arenas_;
};

/// Current thread-context heap (a property of the underlying kernel thread;
/// the ULT scheduler sets it when switching migratable threads in and out).
/// Null means "not in a migratable-thread context": allocation falls through
/// to the system allocator, exactly as the paper routes communication-layer
/// mallocs to the normal libc version.
namespace detail {
inline thread_local ThreadHeap* t_current_heap = nullptr;
}
inline ThreadHeap* current_heap() { return detail::t_current_heap; }
inline void set_current_heap(ThreadHeap* heap) {
  detail::t_current_heap = heap;
}

/// Routes this kernel thread's allocations to the system allocator for the
/// scope's lifetime. Runtime-owned buffers (message envelopes, queue
/// storage, request blocks) made from inside a migratable thread must not
/// land on that thread's heap: they outlive its slots or stay behind when
/// it migrates. The scope must not span a context switch.
class SystemHeapScope {
 public:
  SystemHeapScope() : saved_(current_heap()) { set_current_heap(nullptr); }
  ~SystemHeapScope() { set_current_heap(saved_); }
  SystemHeapScope(const SystemHeapScope&) = delete;
  SystemHeapScope& operator=(const SystemHeapScope&) = delete;

 private:
  ThreadHeap* saved_;
};

/// Routed allocation entry points: use current_heap() when set, else libc.
/// free() routes by address (isomalloc region test), so pointers can be
/// freed from either context safely.
void* routed_malloc(std::size_t size);
void routed_free(void* p);
void* routed_realloc(void* p, std::size_t size);
void* routed_calloc(std::size_t nmemb, std::size_t size);

}  // namespace mfc::iso
