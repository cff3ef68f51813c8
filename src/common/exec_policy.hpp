// ExecPolicy: an explicit execution-policy handle threaded through every
// parallel loop (the lgrtk device_policy shape, specialized to this repo).
//
// A policy names *where* data-parallel work runs — serial inline, or on a
// ThreadPool its caller owns; there is no process-wide pool behind it — and
// *which* scratch it uses: each pool policy owns an arena of RunWorkspace
// slots, and a worker executing under the policy is bound to exactly one
// slot for the duration of its outermost frame (WorkerScope). Nested frames
// on the same worker share that slot, preserving the CL001 workspace-group
// contract, while two pool policies (two concurrent suites) can never alias
// scratch because their arenas are disjoint. A serial policy holds no arena:
// its work never leaves the calling thread, so it uses that thread's own
// RunWorkspace.
//
// Migration rule for new code: take `const ExecPolicy&` (or a ProtocolEnv,
// which carries one) and spell loops `policy.par_for(...)` / `env.par_for(...)`
// and scratch `policy.workspace()` / `env.workspace()`. Lint rule CL012 keeps
// ambient execution state (a process-wide pool, a free `parallel_for(...)`,
// `RunWorkspace::current()`) out of src/.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

class WorkspaceArena;

class ExecPolicy {
 public:
  /// Everything runs inline on the calling thread; worker_count() == 1.
  static ExecPolicy serial();
  /// Work runs on `pool` (caller keeps ownership; the pool must outlive
  /// every par_for issued through the policy, including queued stragglers —
  /// ThreadPool's destructor drains its queue, so pool-before-policy
  /// destruction order is safe).
  static ExecPolicy pool(ThreadPool& pool);

  ExecPolicy(const ExecPolicy&) = default;
  ExecPolicy& operator=(const ExecPolicy&) = default;

  /// Number of workers a par_for may use (1 => par_for runs inline).
  std::size_t worker_count() const noexcept { return workers_; }

  /// The workspace slot bound to the calling worker (via WorkerScope). For a
  /// serial policy, or on a thread not bound to this policy's arena, the
  /// per-thread workspace, which is always private to the caller.
  RunWorkspace& workspace() const;

  /// Runs body(i) for every i in [begin, end); blocks until done. Serial
  /// path (one worker, or a single index) calls the body directly — inlined,
  /// no std::function construction; the protocol hot path invokes this
  /// millions of times per suite.
  template <typename Body>
  void par_for(std::size_t begin, std::size_t end, Body&& body,
               std::size_t grain = 0) const {
    if (begin >= end) return;
    if (worker_count() <= 1 || end - begin == 1) {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    run_on_pool(begin, end,
                std::function<void(std::size_t)>(std::ref(body)), grain);
  }

 private:
  ExecPolicy(ThreadPool* pool, std::size_t workers);

  void run_on_pool(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body,
                   std::size_t grain) const;

  ThreadPool* pool_ = nullptr;  // null => serial
  std::size_t workers_ = 1;     // cached thread count of pool_
  std::shared_ptr<WorkspaceArena> arena_;  // null => serial

  friend class WorkerScope;
};

/// Binds the calling thread to a workspace slot of `policy` for the scope's
/// lifetime. Reentrant per thread: if the thread is already bound to the same
/// policy's arena (an outer frame), the scope is a no-op and the nested frame
/// shares the outer slot — exactly the old thread_local sharing that the
/// CL001 group-ownership contract is written against. Pool workers get a
/// scope automatically around their chunk-claiming loop; open one explicitly
/// at an entry point that takes any policy (run_scenario does). Over a
/// serial policy the scope binds nothing: the policy already uses the
/// calling thread's own workspace.
class WorkerScope {
 public:
  explicit WorkerScope(const ExecPolicy& policy);
  ~WorkerScope();
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  std::shared_ptr<WorkspaceArena> arena_;  // keepalive for straggler helpers
  RunWorkspace* slot_ = nullptr;           // null => reused an outer binding
  const WorkspaceArena* prev_arena_ = nullptr;
  RunWorkspace* prev_ws_ = nullptr;
};

}  // namespace colscore
