// Proof point for the ExecPolicy design: execution is fully explicit and
// scratch belongs to the thread. Two SuiteRunners, each on the pool it owns,
// run concurrently and still produce byte-identical JSONL to a serial run,
// because no execution state is process-wide and no thread ever runs two
// runs' frames at once. The whole binary runs under the tsan CI leg
// (COLSCORE_SAN=thread).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
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

/// Runs the pinned grid on `threads` and returns the typed-JSONL bytes.
std::string suite_jsonl(const std::vector<ScenarioSpec>& specs,
                        std::size_t threads) {
  const MetricSchema schema = suite_metric_schema(specs);
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  JsonlSink sink(config);
  RecordStream stream(sink, schema, default_columns());
  SuiteOptions options;
  options.threads = threads;
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

TEST(ExecPolicy, PoolParForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  EXPECT_EQ(policy.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(2048);
  policy.par_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Two runners, each on the 2-thread pool it owns, driven concurrently from
// an outer pool, emit byte-for-byte the serial rows.
TEST(ExecPolicy, ConcurrentSuitesOnDisjointPoolsMatchSerialBytes) {
  const std::vector<ScenarioSpec> specs = small_specs();
  const std::string serial = suite_jsonl(specs, /*threads=*/1);
  ASSERT_FALSE(serial.empty());

  ThreadPool outer(2);
  std::array<std::string, 2> outputs;
  ExecPolicy::pool(outer).par_for(
      0, outputs.size(),
      [&](std::size_t s) { outputs[s] = suite_jsonl(specs, /*threads=*/2); },
      /*grain=*/1);

  EXPECT_EQ(outputs[0], serial);
  EXPECT_EQ(outputs[1], serial);
}

// CL001 contract: nested frames on one thread share its workspace, so a
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

}  // namespace
}  // namespace colscore
