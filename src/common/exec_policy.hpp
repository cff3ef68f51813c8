// ExecPolicy: an explicit execution-policy handle threaded through every
// parallel loop (the lgrtk device_policy shape, specialized to this repo).
//
// A policy names *where* data-parallel work runs — serial inline, or on a
// ThreadPool its caller owns; there is no process-wide pool behind it — and
// holds nothing else: it is a {pool pointer, worker count} value built at
// the call site. Scratch belongs to the executing thread: workspace()
// returns the calling thread's RunWorkspace. That is all the CL001
// workspace-group contract needs, because a thread's frame stack only ever
// holds one piece of work plus the nested loops it claimed itself —
// ThreadPool::parallel_for never runs a foreign queue entry while it waits —
// so nested frames on one thread share its workspace and frames on
// different threads never do.
//
// Migration rule for new code: take `const ExecPolicy&` (or a ProtocolEnv,
// which carries one) and spell loops `policy.par_for(...)` / `env.par_for(...)`
// and scratch `policy.workspace()` / `env.workspace()`. Lint rule CL012 keeps
// ambient execution state (a process-wide pool, a free `parallel_for(...)`,
// `RunWorkspace::current()`) out of src/.
#pragma once

#include <cstddef>
#include <functional>

#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

class ExecPolicy {
 public:
  /// Everything runs inline on the calling thread; worker_count() == 1.
  static ExecPolicy serial();
  /// Work runs on `pool` (caller keeps ownership; the pool must outlive
  /// every par_for issued through the policy, including queued stragglers —
  /// ThreadPool's destructor drains its queue, so pool-before-policy
  /// destruction order is safe).
  static ExecPolicy pool(ThreadPool& pool);

  /// Number of workers a par_for may use (1 => par_for runs inline).
  std::size_t worker_count() const noexcept { return workers_; }

  /// The calling thread's workspace: pool workers scratch in their own,
  /// and a serial loop in its caller's.
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
    pool_->parallel_for(begin, end,
                        std::function<void(std::size_t)>(std::ref(body)),
                        grain);
  }

 private:
  ExecPolicy(ThreadPool* pool, std::size_t workers)
      : pool_(pool), workers_(workers) {}

  ThreadPool* pool_ = nullptr;  // null => serial
  std::size_t workers_ = 1;     // cached thread count of pool_
};

/// Binds nothing: scratch belongs to the thread, so there is no slot to
/// bind. The type survives only because the bench/e2e replay of
/// run_scenario still opens one; it goes away together with that replay.
/// Lint rule CL012 keeps it out of the rest of src/.
class WorkerScope {
 public:
  explicit WorkerScope(const ExecPolicy&) {}
};

}  // namespace colscore
