#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

struct RobustFixture {
  World world;
  Population population;
  ProbeOracle oracle;
  BulletinBoard board;

  explicit RobustFixture(World w)
      : world(std::move(w)), population(world.n_players()), oracle(world.matrix) {}

  std::size_t max_honest_error(const ProtocolResult& r) const {
    const auto honest = population.honest_players();
    const auto errors = hamming_errors(world.matrix, r.outputs, honest);
    return errors.empty() ? 0 : *std::max_element(errors.begin(), errors.end());
  }
};

TEST(Robust, HonestWorldMatchesPlainProtocol) {
  RobustFixture f(planted_clusters(128, 128, 4, 8, Rng(1)));
  RobustParams params;
  params.inner = Params::practical(4);
  params.outer_reps = 2;
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 1);
  EXPECT_EQ(r.honest_leader_reps, 2u);  // all players honest
  EXPECT_LE(f.max_honest_error(r.result), 2 * 8u);
  EXPECT_EQ(r.elections.size(), 2u);
}

TEST(Robust, SurvivesDishonestLeadersViaRepetition) {
  // Even when some repetitions run under a dishonest (predictable) beacon,
  // the final RSelect keeps a candidate from an honest-leader repetition.
  const std::size_t n = 256, B = 8, D = 8;
  RobustFixture f(planted_clusters(n, n, B, D, Rng(2)));
  Rng rng(3);
  f.population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<Sleeper>(); });
  RobustParams params;
  params.inner = Params::practical(B);
  params.outer_reps = 3;
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 2);
  EXPECT_GE(r.honest_leader_reps, 1u);
  EXPECT_LE(f.max_honest_error(r.result), 4 * D);
}

/// A dishonest leader's beacon: one constant seed for every phase, so every
/// per-object vote assignment draws the same member pattern.
struct ConstantBeacon final : RandomnessBeacon {
  std::uint64_t seed_for(std::uint64_t) override { return 0xdeadULL; }
  bool honest() const override { return false; }
};

TEST(Robust, ConstantDishonestBeaconKeepsErrorWithinFourD) {
  // §7.1's biased beacon without grinding, over sleepers at the n/(3B)
  // bound. The error reads 6, as it does with an honest beacon on this world.
  const std::size_t n = 256, B = 8, D = 12;
  RobustFixture f(planted_clusters(n, n, B, D, Rng(4242)));
  Rng rng(7);
  f.population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<Sleeper>(); });
  ConstantBeacon beacon;
  ProtocolEnv env(f.oracle, f.board, f.population, beacon, 5);
  EXPECT_LE(f.max_honest_error(calculate_preferences(env, Params::practical(B), 6)),
            4 * D);
}

TEST(Robust, CustomDishonestBeaconFactoryIsUsed) {
  const std::size_t n = 128, B = 4;
  RobustFixture f(planted_clusters(n, n, B, 8, Rng(4)));
  Rng rng(5);
  // Heavy corruption so dishonest leaders actually happen.
  f.population.corrupt_random(n / 3, rng,
                              [] { return std::make_unique<RandomLiar>(); });
  std::size_t factory_calls = 0;
  RobustParams params;
  params.inner = Params::practical(B);
  params.outer_reps = 4;
  params.dishonest_beacon = [&factory_calls](std::uint64_t rep_key, PlayerId) {
    ++factory_calls;
    return std::make_unique<GrindingBeacon>(rep_key, 1, nullptr);
  };
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 3);
  EXPECT_EQ(factory_calls + r.honest_leader_reps, 4u);
}

TEST(Robust, MoreRepsMoreHonestLeaders) {
  const std::size_t n = 128, B = 4;
  RobustFixture f(planted_clusters(n, n, B, 8, Rng(6)));
  Rng rng(7);
  f.population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<Inverter>(); });
  RobustParams params;
  params.inner = Params::practical(B);
  params.outer_reps = 5;
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 4);
  // With ~10% dishonest, most elections go honest.
  EXPECT_GE(r.honest_leader_reps, 3u);
}

TEST(Robust, ProbeAccountingCoversAllReps) {
  RobustFixture f(planted_clusters(64, 64, 2, 4, Rng(8)));
  RobustParams params;
  params.inner = Params::practical(2);
  params.outer_reps = 2;
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 5);
  EXPECT_EQ(r.result.total_probes, f.oracle.total_probes());
  EXPECT_GT(r.result.max_probes, 0u);
}

TEST(Robust, IterationDiagnosticsAggregated) {
  RobustFixture f(planted_clusters(64, 64, 2, 4, Rng(9)));
  RobustParams params;
  params.inner = Params::practical(2);
  params.outer_reps = 2;
  const RobustResult r =
      robust_calculate_preferences(f.oracle, f.board, f.population, params, 6);
  // Two repetitions, each with >= 1 diameter iteration.
  EXPECT_GE(r.result.iterations.size(), 2u);
}

TEST(Robust, DeterministicForSameSeeds) {
  RobustParams params;
  params.inner = Params::practical(4);
  params.outer_reps = 2;
  RobustFixture f1(planted_clusters(128, 128, 4, 8, Rng(10)));
  RobustFixture f2(planted_clusters(128, 128, 4, 8, Rng(10)));
  const RobustResult a =
      robust_calculate_preferences(f1.oracle, f1.board, f1.population, params, 7);
  const RobustResult b =
      robust_calculate_preferences(f2.oracle, f2.board, f2.population, params, 7);
  for (PlayerId p = 0; p < 128; ++p)
    EXPECT_EQ(a.result.outputs[p], b.result.outputs[p]);
}

}  // namespace
}  // namespace colscore
