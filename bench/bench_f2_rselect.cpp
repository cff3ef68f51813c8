// F2 — Theorem 3 (RSelect).
//
// Claims: (a) the chosen vector is within O(1)x of the best candidate's
// distance; (b) probe cost is O(k^2 log n).
//
// Reproduction: k candidates at staggered distances from the player's truth;
// sweep k and report the approximation ratio and probes / (k^2 log2 n).
// The shape: ratio stays ~constant in k; normalized probes stay ~constant.
#include <benchmark/benchmark.h>

#include <cmath>

#include "src/model/generators.hpp"
#include "src/protocols/select.hpp"

namespace colscore {
namespace {

void BM_RSelect(benchmark::State& state) {
  const std::size_t n_objects = 2048;
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t best_dist = 16;
  const std::size_t probes_per_pair = 22;  // ~2 log2 n

  std::vector<ObjectId> objects(n_objects);
  for (ObjectId o = 0; o < n_objects; ++o) objects[o] = o;

  double ratio_total = 0, probes_total = 0;
  std::size_t runs = 0;
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      World world = uniform_random(2, n_objects, Rng(seed));
      Population pop(2);
      ProbeOracle oracle(world.matrix);
      BulletinBoard board;
      HonestBeacon beacon(seed);
      ProtocolEnv env(oracle, board, pop, beacon, seed);

      std::vector<BitVector> candidates;
      Rng crng(seed * 13);
      for (std::size_t i = 0; i < k; ++i) {
        BitVector c = world.matrix.row(0);
        c.flip_random(crng, best_dist * (i + 1));  // best is candidate 0
        candidates.push_back(std::move(c));
      }
      const std::vector<ConstBitRow> views(candidates.begin(), candidates.end());
      const SelectOutcome out = rselect(0, views, objects, env, seed, probes_per_pair);
      const double chosen_dist =
          static_cast<double>(world.matrix.row(0).hamming(candidates[out.chosen]));
      ratio_total += chosen_dist / static_cast<double>(best_dist);
      probes_total += static_cast<double>(out.probes);
      ++runs;
    }
  }
  const double dk = static_cast<double>(k);
  state.counters["k"] = dk;
  state.counters["approx_ratio"] = ratio_total / static_cast<double>(runs);
  state.counters["probes"] = probes_total / static_cast<double>(runs);
  state.counters["probes_per_k2logn"] =
      probes_total / static_cast<double>(runs) /
      (dk * dk * std::log2(static_cast<double>(n_objects)));
}

BENCHMARK(BM_RSelect)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
