// PR 9 proof point for the ExecPolicy redesign: execution is fully explicit.
// Two SuiteRunners on disjoint pools run concurrently and still produce
// byte-identical JSONL to a serial run, because no execution state is
// process-wide; and each policy owns its workspace arena, so
// concurrent suites never alias scratch buffers. The whole binary runs under
// the tsan CI leg (COLSCORE_SAN=thread).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/exec_policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"

namespace colscore {
namespace {

std::vector<ScenarioSpec> small_specs() {
  ScenarioSpec base;
  base.set("n", "48").set("budget", "4").set("diameter", "8")
      .set("dishonest", "4").set("opt", "0");
  return expand_grid(base,
                     parse_grid("adversary=none,sleeper x algorithm=calc,baseline"));
}

/// Runs the pinned grid under `policy` and returns the typed-JSONL bytes.
std::string suite_jsonl(const std::vector<ScenarioSpec>& specs,
                        const ExecPolicy& policy) {
  const MetricSchema schema = [&] {
    std::vector<Scenario> resolved;
    for (const ScenarioSpec& s : specs) resolved.push_back(Scenario::resolve(s));
    return suite_metric_schema(resolved);
  }();
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  JsonlSink sink(config);
  RecordStream stream(sink, schema, default_columns());
  SuiteOptions options;
  options.policy = &policy;
  options.on_result = [&](const SuiteRun& run) {
    stream.write(make_run_record(run, schema));
  };
  SuiteRunner(options).run(specs);
  stream.finish();
  return out.str();
}

TEST(ExecPolicy, SerialParForRunsInOrderInline) {
  const ExecPolicy policy = ExecPolicy::serial();
  EXPECT_EQ(policy.worker_count(), 1u);
  std::vector<std::size_t> order;
  policy.par_for(3, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 7u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i + 3);
}

// A serial policy holds no arena: its workspace is the calling thread's own,
// with or without a WorkerScope, and even on a thread bound to a pool's slot.
TEST(ExecPolicy, SerialPolicyUsesTheCallingThreadsWorkspace) {
  const ExecPolicy serial = ExecPolicy::serial();
  RunWorkspace* mine = &RunWorkspace::current();
  EXPECT_EQ(&serial.workspace(), mine);
  {
    WorkerScope scope(serial);
    EXPECT_EQ(&serial.workspace(), mine);
  }
  ThreadPool pool(2);
  const ExecPolicy pooled = ExecPolicy::pool(pool);
  WorkerScope bound(pooled);
  EXPECT_NE(&pooled.workspace(), mine);
  WorkerScope scope(serial);  // binds nothing: the pool slot stays bound
  EXPECT_EQ(&serial.workspace(), mine);
  EXPECT_NE(&pooled.workspace(), mine);
}

TEST(ExecPolicy, PoolParForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  EXPECT_EQ(policy.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(2048);
  policy.par_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The tentpole proof point: two suites on disjoint 2-thread pools, driven
// concurrently from an outer pool, emit byte-for-byte the serial rows.
TEST(ExecPolicy, ConcurrentSuitesOnDisjointPoolsMatchSerialBytes) {
  const std::vector<ScenarioSpec> specs = small_specs();
  const std::string serial = suite_jsonl(specs, ExecPolicy::serial());
  ASSERT_FALSE(serial.empty());

  ThreadPool outer(2);
  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  const ExecPolicy policy_a = ExecPolicy::pool(pool_a);
  const ExecPolicy policy_b = ExecPolicy::pool(pool_b);
  const std::array<const ExecPolicy*, 2> policies = {&policy_a, &policy_b};
  std::array<std::string, 2> outputs;
  ExecPolicy::pool(outer).par_for(
      0, policies.size(),
      [&](std::size_t s) { outputs[s] = suite_jsonl(specs, *policies[s]); },
      /*grain=*/1);

  EXPECT_EQ(outputs[0], serial);
  EXPECT_EQ(outputs[1], serial);
}

// Each policy owns its workspace arena: slots observed under policy A are
// never the slots observed under policy B, even while both run at once.
TEST(ExecPolicy, PoliciesOwnDisjointWorkspaceArenas) {
  ThreadPool outer(2);
  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  const ExecPolicy policy_a = ExecPolicy::pool(pool_a);
  const ExecPolicy policy_b = ExecPolicy::pool(pool_b);
  const std::array<const ExecPolicy*, 2> policies = {&policy_a, &policy_b};
  std::mutex mu;
  std::array<std::set<const RunWorkspace*>, 2> seen;

  ExecPolicy::pool(outer).par_for(
      0, policies.size(),
      [&](std::size_t s) {
        for (int round = 0; round < 8; ++round) {
          policies[s]->par_for(0, 256, [&](std::size_t) {
            const RunWorkspace* ws = &policies[s]->workspace();
            std::lock_guard<std::mutex> lock(mu);
            seen[s].insert(ws);
          });
        }
      },
      /*grain=*/1);

  ASSERT_FALSE(seen[0].empty());
  ASSERT_FALSE(seen[1].empty());
  for (const RunWorkspace* ws : seen[0]) EXPECT_EQ(seen[1].count(ws), 0u);
}

// CL001 contract: nested frames on one thread share the worker's slot, so a
// nested par_for body on the caller's thread sees the caller's workspace.
TEST(ExecPolicy, NestedLoopsShareTheWorkerSlotPerThread) {
  ThreadPool pool(2);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  std::atomic<int> mismatches{0};
  policy.par_for(0, 8, [&](std::size_t) {
    RunWorkspace* outer_ws = &policy.workspace();
    const std::thread::id me = std::this_thread::get_id();
    policy.par_for(0, 8, [&](std::size_t) {
      if (std::this_thread::get_id() == me && &policy.workspace() != outer_ws)
        mismatches.fetch_add(1);
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ExecPolicy, WorkerScopeBindsAndRestores) {
  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  const ExecPolicy a = ExecPolicy::pool(pool_a);
  const ExecPolicy b = ExecPolicy::pool(pool_b);
  {
    WorkerScope scope_a(a);
    RunWorkspace* wa = &a.workspace();
    {
      WorkerScope scope_b(b);  // different arena: rebinds to a fresh slot
      EXPECT_NE(&b.workspace(), wa);
    }
    EXPECT_EQ(&a.workspace(), wa);  // previous binding restored
    {
      WorkerScope again(a);  // same arena: nested scope shares the slot
      EXPECT_EQ(&a.workspace(), wa);
    }
    EXPECT_EQ(&a.workspace(), wa);
  }
}

}  // namespace
}  // namespace colscore
