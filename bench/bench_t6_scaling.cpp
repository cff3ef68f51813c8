// T6 — simulator throughput (the HPC harness itself).
//
// Two views:
//   * Parallel kernels — the O(n^2) phases (neighbor-graph construction,
//     empirical-OPT radius scan) are embarrassingly parallel over players;
//     the thread sweep should show near-linear speedup.
//   * Full protocol — end-to-end wall time per thread count. The protocol
//     interleaves parallel per-player work with serialized bulletin-board
//     publication (determinism requirement), so Amdahl's law caps the
//     end-to-end speedup; the kernels show the parallel headroom.
// Outputs are identical across thread counts (ThreadDeterminism test).
#include <benchmark/benchmark.h>

#include "src/common/exec_policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/metrics/optimal.hpp"
#include "src/protocols/neighbor_graph.hpp"
#include "src/sim/suite.hpp"

namespace colscore {
namespace {

void BM_NeighborGraphKernel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  const std::size_t n = 3072, dim = 768;
  Rng rng(1);
  std::vector<BitVector> z;
  z.reserve(n);
  for (std::size_t i = 0; i < n; ++i) z.push_back(random_bitvector(dim, rng));
  const std::vector<ConstBitRow> views(z.begin(), z.end());

  double seconds = 0;
  for (auto _ : state) {
    Timer timer;
    const NeighborGraph graph(views, dim / 3, GraphBackend::kAuto, policy);
    benchmark::DoNotOptimize(graph.degree(0));
    seconds = timer.seconds();
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wall_s"] = seconds;
  state.counters["pairs_per_s"] =
      static_cast<double>(n) * static_cast<double>(n) / seconds;
}

void BM_OptRadiusKernel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  const World world = planted_clusters(2048, 2048, 8, 16, Rng(2));

  double seconds = 0;
  for (auto _ : state) {
    Timer timer;
    const OptEstimate est = opt_radius(world.matrix, 256, policy);
    benchmark::DoNotOptimize(est.max_radius);
    seconds = timer.seconds();
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wall_s"] = seconds;
}

void BM_FullProtocol(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  const ExecPolicy policy = ExecPolicy::pool(pool);

  Scenario scenario;
  scenario.n = 512;
  scenario.budget = 8;
  scenario.diameter = 16;
  scenario.seed = 33;
  scenario.compute_opt = false;

  double seconds = 0;
  for (auto _ : state) {
    const ExperimentOutcome out = run_scenario(scenario, policy);
    seconds = out.wall_seconds;
    state.counters["max_err"] = static_cast<double>(out.error.max_error);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wall_s"] = seconds;
}

void BM_SuiteGrid(benchmark::State& state) {
  // Suite-level parallelism: a 3x2 grid of full scenarios executed by the
  // SuiteRunner across worker threads (run-level, on top of the per-run
  // data-parallelism). Outputs are schedule-independent by construction.
  const auto threads = static_cast<std::size_t>(state.range(0));
  ScenarioSpec base;
  base.set("n", "256").set("budget", "8").set("opt", "0");

  SuiteOptions options;
  options.threads = threads;
  SuiteRunner runner(options);

  double seconds = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    Timer timer;
    const auto results =
        runner.run_grid(base, "adversary=none,sleeper,random_liar x dishonest=0,8");
    runs = results.size();
    seconds = timer.seconds();
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["grid_runs"] = static_cast<double>(runs);
  state.counters["wall_s"] = seconds;
}

BENCHMARK(BM_NeighborGraphKernel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

BENCHMARK(BM_OptRadiusKernel)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

BENCHMARK(BM_FullProtocol)
    ->Arg(1)
    ->Arg(8)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

BENCHMARK(BM_SuiteGrid)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
