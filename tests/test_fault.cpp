// Fault-tolerance coverage: FaultPlan parsing, a throwing run degrading to a
// status/error row while the sweep goes on, injected sink failures, and
// shard arithmetic + the shard concatenation contract (k shard outputs ==
// the unsharded rows, byte for byte).
#include "src/sim/fault.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/sim/record.hpp"
#include "src/sim/suite.hpp"

namespace colscore {
namespace {

constexpr char kBase[] = "workload=planted n=48 budget=4 dishonest=4 opt=0";

/// Expands `grid` over the tiny base spec.
std::vector<ScenarioSpec> tiny_grid(const std::string& grid) {
  return expand_grid(ScenarioSpec::parse(kBase), parse_grid(grid));
}

// ---- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlanParse, AcceptsTheDocumentedGrammar) {
  const FaultPlan plan = FaultPlan::parse("throw@3, sink@4, kill@1");
  ASSERT_EQ(plan.specs().size(), 3u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kThrow);
  EXPECT_EQ(plan.specs()[0].index, 3u);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kSinkFail);
  EXPECT_EQ(plan.specs()[1].index, 4u);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kKill);
  EXPECT_EQ(plan.specs()[2].index, 1u);
  EXPECT_TRUE(plan.has_sink_faults());
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ").empty());
  EXPECT_FALSE(FaultPlan::parse("throw@0").has_sink_faults());
}

TEST(FaultPlanParse, NamesTheBadToken) {
  // There is no delay@ kind and no xA attempt suffix: a run executes once,
  // so there is no later attempt to spare and no timeout to trip.
  for (const char* bad : {"explode@3", "throw", "throw@x", "sink@1x2",
                          "throw@1x1", "delay@0=1", "delay@3"}) {
    try {
      (void)FaultPlan::parse(bad);
      FAIL() << "expected ScenarioError for: " << bad;
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("fault spec token '" + std::string(bad) + "'"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("throw@I"), std::string::npos) << msg;
    }
  }
}

// ---- run isolation ----------------------------------------------------------

TEST(RunIsolation, AThrowDegradesToAFailureRow) {
  const FaultPlan faults = FaultPlan::parse("throw@0");
  SuiteOptions options;
  options.threads = 1;
  options.faults = &faults;
  std::vector<std::size_t> streamed;
  options.on_result = [&](const SuiteRun& run) {
    streamed.push_back(run.index);
  };
  const std::vector<SuiteRun> runs =
      SuiteRunner(options).run(tiny_grid("adversary=none,sleeper"));
  ASSERT_EQ(runs.size(), 2u);
  // The suite did not abort: the failed run became a row and the healthy
  // run still executed and streamed in order.
  EXPECT_EQ(streamed, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(runs[0].status, RunStatus::kFailed);
  EXPECT_EQ(runs[0].attempts, 1u);  // executed once, never retried
  EXPECT_NE(runs[0].error.find("injected fault"), std::string::npos)
      << runs[0].error;
  EXPECT_EQ(runs[1].status, RunStatus::kOk);
  EXPECT_EQ(runs[1].attempts, 1u);
  EXPECT_TRUE(runs[1].error.empty());
  EXPECT_EQ(suite_failure_count(runs), 1u);

  // The failure row carries identity + status/error; result metrics stay
  // absent (never a misleading 0).
  const MetricSchema schema = scenario_metric_schema(runs[0].scenario);
  const RunRecord record = make_run_record(runs[0], schema);
  EXPECT_EQ(record.cell_text(schema.index_of("status")), "failed");
  EXPECT_FALSE(record.value("error").as_string().empty());
  EXPECT_EQ(record.value("workload").as_string(), "planted");
  EXPECT_TRUE(record.value("seed").has_value());
  EXPECT_FALSE(record.value("max_err").has_value());
  EXPECT_FALSE(record.value("total_probes").has_value());
}

// ---- sink faults ------------------------------------------------------------

/// Minimal inner sink counting rows (rows_ is inherited).
struct CountingSink : ResultSink {
  void begin(const MetricSchema&) override {}
  void write(const RunRecord&) override { ++rows_; }
};

TEST(SinkFaults, InjectingSinkFailsTheTargetedWrite) {
  auto inner = std::make_unique<CountingSink>();
  CountingSink* counter = inner.get();
  FaultInjectingSink sink(FaultPlan::parse("sink@1"), std::move(inner));
  MetricSchema schema;
  schema.add({"a", MetricType::kString, "", "test"});
  sink.begin(schema);
  RunRecord record(&schema);
  record.set_string("a", "x");
  sink.write(record);  // write 0 passes through
  EXPECT_EQ(counter->rows_written(), 1u);
  EXPECT_THROW(sink.write(record), FaultInjected);  // write 1 fails
  EXPECT_EQ(counter->rows_written(), 1u);  // the fault fires before the write
}

// ---- sharding ---------------------------------------------------------------

TEST(Sharding, RangesPartitionTheIndexSpace) {
  // Blocks cover [0, total) exactly once, in order, for uneven splits too.
  for (std::size_t total : {0u, 1u, 5u, 18u}) {
    for (std::size_t k : {1u, 2u, 3u, 7u}) {
      std::size_t covered = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto [lo, hi] = shard_range(total, i, k);
        EXPECT_EQ(lo, covered);
        EXPECT_LE(hi, total);
        covered = hi;
      }
      EXPECT_EQ(covered, total);
    }
  }
  EXPECT_THROW((void)shard_range(10, 2, 2), ScenarioError);
}

TEST(Sharding, ParseShardAcceptsIOverK) {
  EXPECT_EQ(parse_shard("0/2"), (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(parse_shard("3/7"), (std::pair<std::size_t, std::size_t>{3, 7}));
  for (const char* bad : {"", "1", "a/2", "1/b", "2/2", "3/2", "-1/2"})
    EXPECT_THROW((void)parse_shard(bad), ScenarioError) << bad;
}

TEST(Sharding, ShardOutputsConcatenateToTheUnshardedRows) {
  const std::vector<ScenarioSpec> specs =
      tiny_grid("adversary=none,sleeper,random_liar");

  auto rows_for = [&](std::size_t index, std::size_t count) {
    SuiteOptions options;
    options.threads = 1;
    options.reps = 2;
    options.shard_index = index;
    options.shard_count = count;
    std::vector<std::string> rows;
    options.on_result = [&](const SuiteRun& run) {
      // Out-of-shard runs must never stream.
      EXPECT_NE(run.status, RunStatus::kSkipped);
      std::ostringstream cell;
      for (const std::string& c :
           suite_row_cells(run, false, /*include_rep=*/true))
        cell << c << ',';
      rows.push_back(cell.str());
    };
    for (const SuiteRun& run : SuiteRunner(options).run(specs))
      EXPECT_EQ(run.attempts, run.status == RunStatus::kSkipped ? 0u : 1u);
    return rows;
  };

  const std::vector<std::string> all = rows_for(0, 1);
  ASSERT_EQ(all.size(), 6u);  // 3 cells x 2 reps
  std::vector<std::string> merged;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::vector<std::string> part = rows_for(i, 2);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Identical rows — same derived seeds, same cells — in the same order.
  EXPECT_EQ(merged, all);
}

}  // namespace
}  // namespace colscore
