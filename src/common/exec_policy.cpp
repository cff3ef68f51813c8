#include "src/common/exec_policy.hpp"

#include <algorithm>
#include <deque>
#include <mutex>
#include <vector>

namespace colscore {

// Policy-owned per-worker workspace slots. A deque keeps slots pointer-stable
// while the arena grows; released slots are recycled (warm buffers) before a
// new one is constructed. The arena is shared_ptr-held by the policy and by
// every WorkerScope, so a straggler pool helper that outlives the policy
// object still owns the storage it is bound to.
class WorkspaceArena {
 public:
  RunWorkspace* acquire() {
    std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      RunWorkspace* ws = free_.back();
      free_.pop_back();
      return ws;
    }
    slots_.emplace_back();
    return &slots_.back();
  }

  void release(RunWorkspace* ws) {
    std::lock_guard lock(mutex_);
    free_.push_back(ws);
  }

 private:
  std::mutex mutex_;
  std::deque<RunWorkspace> slots_;
  std::vector<RunWorkspace*> free_;
};

namespace {

// The calling thread's current binding: which arena it is working for and
// which slot it holds. Confined to this TU — everything else reaches scratch
// through ExecPolicy::workspace().
struct Binding {
  const WorkspaceArena* arena = nullptr;
  RunWorkspace* ws = nullptr;
};
thread_local Binding tl_binding;

}  // namespace

ExecPolicy::ExecPolicy(ThreadPool* pool, std::size_t workers)
    : pool_(pool), workers_(workers) {
  // A serial policy runs on its caller's thread only, whose per-thread
  // workspace is already private to it: no arena, so building one (every
  // defaulted `ExecPolicy::serial()` argument) allocates nothing.
  if (pool_ != nullptr) arena_ = std::make_shared<WorkspaceArena>();
}

ExecPolicy ExecPolicy::serial() { return ExecPolicy(nullptr, 1); }

ExecPolicy ExecPolicy::pool(ThreadPool& pool) {
  return ExecPolicy(&pool, std::max<std::size_t>(1, pool.thread_count()));
}

RunWorkspace& ExecPolicy::workspace() const {
  if (arena_ != nullptr && tl_binding.arena == arena_.get())
    return *tl_binding.ws;
  // A serial policy, or a thread not bound to this policy (bench/test entry
  // point): the per-thread workspace is private to the caller and therefore
  // always safe.
  return RunWorkspace::current();
}

void ExecPolicy::run_on_pool(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body,
                             std::size_t grain) const {
  // Value-copy the policy into the scope: queued helper tasks may run after
  // this frame returns (claiming nothing), and the copy's arena_ shared_ptr
  // keeps the slot storage alive for them.
  ExecPolicy self = *this;
  const ThreadPool::ThreadScope scope =
      [self](const std::function<void()>& chunk_loop) {
        WorkerScope worker(self);
        chunk_loop();
      };
  pool_->parallel_for(begin, end, body, grain, scope);
}

WorkerScope::WorkerScope(const ExecPolicy& policy) : arena_(policy.arena_) {
  // Serial policy (no arena): nothing to bind. Nested frame: share the slot.
  if (arena_ == nullptr || tl_binding.arena == arena_.get()) return;
  prev_arena_ = tl_binding.arena;
  prev_ws_ = tl_binding.ws;
  slot_ = arena_->acquire();
  tl_binding = Binding{arena_.get(), slot_};
}

WorkerScope::~WorkerScope() {
  if (slot_ == nullptr) return;
  tl_binding = Binding{prev_arena_, prev_ws_};
  arena_->release(slot_);
}

}  // namespace colscore
