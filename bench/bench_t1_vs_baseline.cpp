// T1 — the comparison against Alon et al. [2,3] (§1, §4).
//
// The paper's claims about [2,3]: O(B^2 polylog n) probes, only a
// B-approximation, and no Byzantine tolerance. Our reconstruction
// (sample_and_share) reproduces the probe bill and the missing robustness.
// Rows:
//   * probe scaling — the baseline's dominant cost is the public B^2 log n
//     sample (probes_over_B2 ~ flat), ours grows ~linearly in B at fixed n;
//   * Byzantine contrast — n/(3B) hijackers planted inside a victim's twin
//     set: the baseline's star neighbourhood is captured (victim error
//     jumps), the Fig. 2 protocol's domination-checked clusters are not;
//   * chained workload — a personalization-friendly instance where any
//     partition-based method (ours) pays ~the Definition-1 optimum (the
//     n/B-neighbourhood spans several links) while per-player stars track
//     each player; both stay O(D_opt), confirming our constant-factor
//     optimality on an instance that favours the baseline. (The literal
//     B-factor *lower* bound for [2,3] stems from their committee-drift
//     construction, which the modernized star reconstruction does not
//     exhibit, so no row here reproduces that gap.)
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "src/baseline/baselines.hpp"
#include "src/core/calculate_preferences.hpp"

namespace colscore {
namespace {

void BM_ProbeScaling_Ours(benchmark::State& state) {
  Scenario scenario;
  scenario.n = 512;
  scenario.budget = static_cast<std::size_t>(state.range(0));
  scenario.diameter = 16;
  scenario.seed = 10;
  scenario.compute_opt = false;
  ExperimentOutcome out;
  for (auto _ : state) out = run_scenario(scenario);
  state.counters["B"] = static_cast<double>(scenario.budget);
  state.counters["max_probes"] = static_cast<double>(out.max_probes);
  state.counters["probes_over_B"] = static_cast<double>(out.max_probes) /
                                    static_cast<double>(scenario.budget);
  state.counters["max_err"] = static_cast<double>(out.error.max_error);
}

void BM_ProbeScaling_Baseline(benchmark::State& state) {
  Scenario scenario;
  scenario.n = 512;
  scenario.budget = static_cast<std::size_t>(state.range(0));
  scenario.diameter = 16;
  scenario.seed = 10;
  scenario.algorithm = "sample_and_share";
  scenario.compute_opt = false;
  ExperimentOutcome out;
  for (auto _ : state) out = run_scenario(scenario);
  const double b = static_cast<double>(scenario.budget);
  state.counters["B"] = b;
  state.counters["max_probes"] = static_cast<double>(out.max_probes);
  state.counters["probes_over_B2"] = static_cast<double>(out.max_probes) / (b * b);
  state.counters["max_err"] = static_cast<double>(out.error.max_error);
}

/// Victim error under targeted hijack for either algorithm.
double hijack_victim_error(bool use_baseline) {
  const std::size_t n = 256, budget = 8, byz = n / (3 * budget);
  World world = identical_clusters(n, n, budget, Rng(77));
  Population pop(n);
  for (PlayerId p = 1; p <= byz; ++p)
    pop.set_behavior(p, std::make_unique<ClusterHijacker>(world.matrix, 0));
  ProbeOracle oracle(world.matrix);
  BulletinBoard board;
  HonestBeacon beacon(78);
  ProtocolEnv env(oracle, board, pop, beacon, 79);
  BitVector victim_output;
  if (use_baseline) {
    SampleShareParams sp;
    sp.budget = budget;
    victim_output = sample_and_share(env, sp).result.outputs[0];
  } else {
    victim_output =
        calculate_preferences(env, Params::practical(budget), 80).outputs[0];
  }
  return static_cast<double>(world.matrix.row(0).hamming(victim_output));
}

void BM_Hijack_Ours(benchmark::State& state) {
  double err = 0;
  for (auto _ : state) err = hijack_victim_error(false);
  state.counters["victim_err"] = err;
  state.counters["hijackers"] = 256.0 / 24.0;
}

void BM_Hijack_Baseline(benchmark::State& state) {
  double err = 0;
  for (auto _ : state) err = hijack_victim_error(true);
  state.counters["victim_err"] = err;
  state.counters["hijackers"] = 256.0 / 24.0;
}

Scenario chained_scenario(const char* algorithm) {
  Scenario scenario;
  scenario.n = 256;
  scenario.budget = 4;
  scenario.workload = "chained";
  scenario.diameter = 12;  // chain step
  scenario.seed = 9;
  scenario.algorithm = algorithm;
  scenario.compute_opt = true;
  return scenario;
}

void BM_Chained_Ours(benchmark::State& state) {
  ExperimentOutcome out;
  const Scenario scenario = chained_scenario("calculate_preferences");
  for (auto _ : state) out = run_scenario(scenario);
  benchutil::attach_outcome(state, out);
  state.counters["step"] = 12;
}

void BM_Chained_Baseline(benchmark::State& state) {
  ExperimentOutcome out;
  const Scenario scenario = chained_scenario("sample_and_share");
  for (auto _ : state) out = run_scenario(scenario);
  benchutil::attach_outcome(state, out);
  state.counters["step"] = 12;
}

BENCHMARK(BM_ProbeScaling_Ours)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_ProbeScaling_Baseline)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Hijack_Ours)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Hijack_Baseline)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Chained_Ours)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Chained_Baseline)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
