// lint-fixture-as: src/metrics/fixture_ambient.cpp
// CL012: library loops name their ExecPolicy; the ambient spellings couple
// concurrent suites through process globals, scratch is spelled through the
// policy, and the leftover WorkerScope gains no users.
#include "src/common/exec_policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"

namespace colscore {

void fixture_ambient_execution(const ExecPolicy& policy, std::size_t n) {
  ThreadPool& pool = ThreadPool::global();           // VIOLATION
  parallel_for(0, n, [](std::size_t) {});            // VIOLATION
  RunWorkspace& ws = RunWorkspace::current();        // VIOLATION
  // colscore-lint: allow(CL012) fixture: a documented direct access
  RunWorkspace& fallback = RunWorkspace::current();  // suppressed
  WorkerScope scope(policy);                         // VIOLATION
  policy.par_for(0, n, [](std::size_t) {});          // sanctioned: fine
  RunWorkspace& scratch = policy.workspace();        // sanctioned: fine
  (void)pool;
  (void)ws;
  (void)fallback;
  (void)scratch;
}

// The PR 10 shape: a streaming epoch loop whose per-epoch fan-out grabs the
// ambient pool. Each epoch's delta sweep must run on the session's policy —
// an ambient spelling here couples every concurrent streaming session
// through one process pool, once per epoch.
void fixture_ambient_epoch_loop(const ExecPolicy& policy, std::size_t n,
                                std::size_t epochs) {
  for (std::size_t e = 0; e < epochs; ++e) {
    parallel_for(0, n, [](std::size_t) {});          // VIOLATION
    policy.par_for(0, n, [](std::size_t) {});        // sanctioned: fine
  }
}

}  // namespace colscore
