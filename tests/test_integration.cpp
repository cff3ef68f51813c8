// Integration tests through the run_scenario entry point on directly
// constructed Scenarios — the same path the CLI, benches and examples use.
#include "src/sim/registry.hpp"

#include <gtest/gtest.h>

namespace colscore {
namespace {

TEST(Experiment, PlantedClustersEndToEnd) {
  Scenario config;
  config.n = 128;
  config.budget = 4;
  config.diameter = 8;
  config.seed = 1;
  const ExperimentOutcome out = run_scenario(config);
  EXPECT_EQ(out.honest_players, 128u);
  EXPECT_LE(out.error.max_error, 3 * 8u);
  EXPECT_GT(out.max_probes, 0u);
  EXPECT_GT(out.wall_seconds, 0.0);
}

TEST(Experiment, EveryWorkloadRuns) {
  for (const char* w :
       {"planted", "identical", "lower_bound", "chained", "uniform", "two_blocks"}) {
    Scenario config;
    config.n = 64;
    config.budget = 4;
    config.diameter = 4;
    config.workload = w;
    config.seed = 2;
    config.compute_opt = false;
    const ExperimentOutcome out = run_scenario(config);
    EXPECT_EQ(out.honest_players, 64u) << w;
  }
}

TEST(Experiment, EveryAlgorithmRuns) {
  for (const char* a : {"calculate_preferences", "robust", "probe_all",
                        "random_guess", "oracle_clusters", "sample_and_share"}) {
    Scenario config;
    config.n = 64;
    config.budget = 4;
    config.diameter = 4;
    config.algorithm = a;
    config.seed = 3;
    config.robust_outer_reps = 2;
    config.compute_opt = false;
    const ExperimentOutcome out = run_scenario(config);
    EXPECT_EQ(out.honest_players, 64u) << a;
  }
}

TEST(Experiment, EveryAdversaryRuns) {
  for (const char* a : {"random_liar", "inverter", "constant_one",
                        "targeted_bias", "hijacker", "sleeper"}) {
    Scenario config;
    config.n = 96;
    config.budget = 4;
    config.diameter = 6;
    config.adversary = a;
    config.dishonest = 8;  // n/(3B) = 8
    config.seed = 4;
    config.compute_opt = false;
    const ExperimentOutcome out = run_scenario(config);
    EXPECT_EQ(out.honest_players, 96u - 8u) << a;
    EXPECT_LE(out.error.max_error, 30u) << a;
  }
}

TEST(Experiment, RobustAlgorithmReportsLeaders) {
  Scenario config;
  config.n = 96;
  config.budget = 4;
  config.diameter = 6;
  config.algorithm = "robust";
  config.robust_outer_reps = 3;
  config.seed = 5;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  EXPECT_EQ(out.honest_leader_reps, 3u);  // all honest
}

TEST(Experiment, ProbeAllIsExact) {
  Scenario config;
  config.n = 64;
  config.budget = 4;
  config.algorithm = "probe_all";
  config.seed = 6;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  EXPECT_EQ(out.error.max_error, 0u);
  EXPECT_EQ(out.max_probes, 64u);
}

TEST(Experiment, OutcomeDeterministicInSeed) {
  Scenario config;
  config.n = 96;
  config.budget = 4;
  config.diameter = 8;
  config.seed = 7;
  config.compute_opt = false;
  const ExperimentOutcome a = run_scenario(config);
  const ExperimentOutcome b = run_scenario(config);
  EXPECT_EQ(a.error.max_error, b.error.max_error);
  EXPECT_EQ(a.total_probes, b.total_probes);
}

TEST(Experiment, SeedChangesOutcome) {
  Scenario config;
  config.n = 96;
  config.budget = 4;
  config.diameter = 8;
  config.compute_opt = false;
  config.seed = 8;
  const ExperimentOutcome a = run_scenario(config);
  config.seed = 9;
  const ExperimentOutcome b = run_scenario(config);
  // Different worlds -> almost surely different probe totals.
  EXPECT_NE(a.total_probes, b.total_probes);
}

TEST(Experiment, ZipfSizesStillWork) {
  Scenario config;
  config.n = 128;
  config.budget = 4;
  config.diameter = 8;
  config.zipf_sizes = true;
  config.n_clusters = 3;
  config.seed = 10;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  // Zipf sizes can push small clusters below n/B; the protocol may degrade
  // for those players but must not crash, and big-cluster players stay good.
  EXPECT_EQ(out.honest_players, 128u);
}

TEST(Experiment, LowerBoundInstanceHonoursClaim2Shape) {
  // On the adversarial distribution, even our protocol cannot beat ~D/4 for
  // the pivot player: its group members are random on the special set.
  Scenario config;
  config.n = 128;
  config.budget = 8;
  config.diameter = 32;
  config.workload = "lower_bound";
  config.seed = 11;
  config.compute_opt = false;
  const ExperimentOutcome out = run_scenario(config);
  // The pivot group's predictions on S are majority-of-random: expected
  // error ~ D/2 for disagreeing members; Claim 2 lower bound is D/4.
  EXPECT_GE(out.error.max_error, 32u / 4);
}

}  // namespace
}  // namespace colscore
