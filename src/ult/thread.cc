#include "ult/thread.h"

#include <atomic>

#include "trace/probe.h"
#include "ult/scheduler.h"
#include "util/check.h"

namespace mfc::ult {

namespace {
std::atomic<std::uint64_t> g_next_id{1};
}

const char* to_string(State s) {
  switch (s) {
    case State::kCreated: return "created";
    case State::kReady: return "ready";
    case State::kRunning: return "running";
    case State::kSuspended: return "suspended";
    case State::kDone: return "done";
  }
  return "?";
}

Thread::Thread(Fn fn)
    : fn_(std::move(fn)),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {
  probe::emit(probe::Ev::kUltCreate, id_);
}

Thread::~Thread() {
  // Park the fiber handle for a possible rebuild of this thread from a
  // packed image (tsan builds only; see arch::stash_context_fiber).
  arch::stash_context_fiber(ctx_, id_);
}

void Thread::init_context(void* stack, std::size_t bytes) {
  ctx_ = arch::make_context(stack, bytes, &Thread::trampoline, this);
}

void Thread::trampoline(void* self) {
  auto* t = static_cast<Thread*>(self);
  {
    // Move the entry function onto this thread's own stack before running
    // it. A migratable thread may be packed while suspended inside the
    // closure, after which the original Thread object (and the fn_ stored in
    // it) is deleted on the source PE — the closure state must travel with
    // the stack, not stay behind in the husk. For isomalloc threads even a
    // heap-allocated closure migrates: the move runs in thread context, so
    // std::function's allocation lands in the thread's slot heap.
    Fn local_fn = std::move(t->fn_);
    t->fn_ = nullptr;
    local_fn();
    // From here on `t` must not be touched: if the thread migrated, the
    // object that now represents it is a different allocation.
  }
  Scheduler::current().exit_current();
  // exit_current never returns control here.
}

StandardThread::StandardThread(Fn fn, std::size_t stack_bytes)
    : Thread(std::move(fn)), stack_(new char[stack_bytes]) {
  MFC_CHECK(stack_bytes >= arch::kMinStackBytes);
  init_context(stack_.get(), stack_bytes);
}

}  // namespace mfc::ult
