// T4 — ablations of the protocol's defenses against dishonest players:
// vote redundancy, cluster-formation slack, the capped edge threshold and a
// fresh leader per repeat.
//
// Each row removes one defense and measures the damage under the same
// Byzantine workload (sleepers at the n/(3B) bound on planted clusters):
//   control      — full protocol defaults;
//   votes1       — no vote redundancy (1 probe per object instead of
//                  Θ(log n)): Lemma 13's domination argument has nothing to
//                  work with and error blows up;
//   slack0       — cluster formation demands the full n/B degree: clusters
//                  containing non-cooperating dishonest members can never
//                  form (see Params::cluster_slack);
//   tau_uncapped — the paper's literal 220 ln n edge threshold at laptop n:
//                  it exceeds typical inter-cluster distances and merges
//                  everything into one cluster;
//   biased_beacon— a dishonest leader grinds the shared randomness to
//                  starve the protocol's sample sets (smallest |S| wins),
//                  demonstrating why §7.1 repeats under fresh leaders.
#include <benchmark/benchmark.h>

#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

struct AblationResult {
  std::size_t max_err = 0;
  double mean_err = 0;
  std::size_t clusters_iter0 = 0;
};

/// A dishonest leader's worst-case beacon: one constant seed for every
/// phase. Every per-object vote assignment then draws the same member
/// pattern, so a handful of players cast ALL the votes — if any of them is a
/// sleeper, it controls a constant fraction of every object's ballot.
class ConstantBeacon final : public RandomnessBeacon {
 public:
  std::uint64_t seed_for(std::uint64_t) override { return 0xdeadULL; }
  bool honest() const override { return false; }
};

enum class Foe { kSleeper, kLiar };

AblationResult run_case(const Params& params, bool biased_beacon, Foe foe) {
  const std::size_t n = 256, budget = 8, D = 12;
  World world = planted_clusters(n, n, budget, D, Rng(4242));
  Population pop(n);
  Rng rng(7);
  pop.corrupt_random(n / (3 * budget), rng, [&]() -> std::unique_ptr<Behavior> {
    if (foe == Foe::kSleeper) return std::make_unique<Sleeper>();
    return std::make_unique<RandomLiar>();
  });
  ProbeOracle oracle(world.matrix);
  BulletinBoard board;

  std::unique_ptr<RandomnessBeacon> beacon;
  if (biased_beacon) {
    beacon = std::make_unique<ConstantBeacon>();
  } else {
    beacon = std::make_unique<HonestBeacon>(99);
  }
  ProtocolEnv env(oracle, board, pop, *beacon, 5);
  const ProtocolResult r = calculate_preferences(env, params, 6);

  AblationResult out;
  const auto honest = pop.honest_players();
  const auto errors = hamming_errors(world.matrix, r.outputs, honest);
  double sum = 0;
  for (auto e : errors) {
    out.max_err = std::max(out.max_err, e);
    sum += static_cast<double>(e);
  }
  out.mean_err = sum / static_cast<double>(errors.size());
  out.clusters_iter0 = r.iterations.empty() ? 0 : r.iterations.front().clusters;
  return out;
}

void report(benchmark::State& state, const AblationResult& r) {
  state.counters["max_err"] = static_cast<double>(r.max_err);
  state.counters["mean_err"] = r.mean_err;
  state.counters["clusters_iter0"] = static_cast<double>(r.clusters_iter0);
}

void BM_ControlSleepers(benchmark::State& state) {
  AblationResult r;
  for (auto _ : state) r = run_case(Params::practical(8), false, Foe::kSleeper);
  report(state, r);
}

void BM_ControlLiars(benchmark::State& state) {
  AblationResult r;
  for (auto _ : state) r = run_case(Params::practical(8), false, Foe::kLiar);
  report(state, r);
}

void BM_NoVoteRedundancy(benchmark::State& state) {
  Params p = Params::practical(8);
  p.vote_c = 0.0;
  p.vote_min = 1;
  AblationResult r;
  for (auto _ : state) r = run_case(p, false, Foe::kSleeper);
  report(state, r);
}

void BM_NoClusterSlack(benchmark::State& state) {
  // Liars garble their published sample vectors, so clusters containing
  // them cannot reach the full n/B degree; without slack they never form.
  Params p = Params::practical(8);
  p.cluster_slack = 0.0;
  AblationResult r;
  for (auto _ : state) r = run_case(p, false, Foe::kLiar);
  report(state, r);
}

void BM_UncappedTau(benchmark::State& state) {
  Params p = Params::practical(8);
  p.graph_tau_c = 220.0;  // the paper's literal constant
  p.graph_tau_sample_frac = 1.0;
  AblationResult r;
  for (auto _ : state) r = run_case(p, false, Foe::kSleeper);
  report(state, r);
}

void BM_BiasedBeacon(benchmark::State& state) {
  AblationResult r;
  for (auto _ : state) r = run_case(Params::practical(8), true, Foe::kSleeper);
  report(state, r);
}

BENCHMARK(BM_ControlSleepers)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_ControlLiars)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NoVoteRedundancy)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_NoClusterSlack)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_UncappedTau)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_BiasedBeacon)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace colscore

BENCHMARK_MAIN();
