// T4 — the biased-beacon ablation: a dishonest leader grinds the shared
// randomness, the attack §7.1 answers by repeating under fresh leaders.
//
// The other T4 rows (vote redundancy, cluster slack, the capped edge
// threshold) are Params keys and run as examples/suites/paper/
// t4_ablations.json. This row stays a bench because the beacon is not a
// scenario param yet. Workload: sleepers at the n/(3B) bound on planted
// clusters, every phase seeded by one constant beacon value.
//
// It does not show damage today: max_err reads 6, which is what the
// full-protocol control with an honest beacon read on this same world and
// these seeds. A worst-case grinding leader (smallest |S| wins) needs a
// beacon param before the row can say anything about §7.1.
#include <benchmark/benchmark.h>

#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

/// A dishonest leader's beacon: one constant seed for every phase, so every
/// per-object vote assignment draws the same member pattern.
class ConstantBeacon final : public RandomnessBeacon {
 public:
  std::uint64_t seed_for(std::uint64_t) override { return 0xdeadULL; }
  bool honest() const override { return false; }
};

void BM_BiasedBeacon(benchmark::State& state) {
  const std::size_t n = 256, budget = 8, D = 12;
  std::size_t max_err = 0;
  double mean_err = 0;
  std::size_t clusters_iter0 = 0;
  for (auto _ : state) {
    World world = planted_clusters(n, n, budget, D, Rng(4242));
    Population pop(n);
    Rng rng(7);
    pop.corrupt_random(n / (3 * budget), rng,
                       [] { return std::make_unique<Sleeper>(); });
    ProbeOracle oracle(world.matrix);
    BulletinBoard board;
    ConstantBeacon beacon;
    ProtocolEnv env(oracle, board, pop, beacon, 5);
    const ProtocolResult r =
        calculate_preferences(env, Params::practical(budget), 6);
    const ErrorStats stats =
        error_stats(world.matrix, r.outputs, pop.honest_players());
    max_err = stats.max_error;
    mean_err = stats.mean_error;
    clusters_iter0 = r.iterations.empty() ? 0 : r.iterations.front().clusters;
  }
  state.counters["max_err"] = static_cast<double>(max_err);
  state.counters["mean_err"] = mean_err;
  state.counters["clusters_iter0"] = static_cast<double>(clusters_iter0);
}

BENCHMARK(BM_BiasedBeacon)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
