#include <gtest/gtest.h>

#include "src/ext/scored.hpp"
#include "src/protocols/work_share.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

// ---------------------------------------------------------------------------
// Heterogeneous budgets (§8): budget-weighted cluster_votes.
// ---------------------------------------------------------------------------

TEST(Hetero, WeightedVotesCorrectOnIdentical) {
  Harness h(identical_clusters(32, 64, 1, Rng(1)));
  std::vector<std::size_t> budgets(32, 1);
  for (std::size_t i = 0; i < 8; ++i) budgets[i] = 10;  // 8 heavy lifters
  WorkShareParams params;
  params.votes_per_object = 9;
  const BitVector prediction =
      cluster_votes(h.all_players(), h.env, 1, params, nullptr, budgets);
  EXPECT_EQ(prediction, h.world.matrix.row(0));
}

TEST(Hetero, ProbeLoadFollowsBudget) {
  Harness h(identical_clusters(40, 400, 1, Rng(2)));
  std::vector<std::size_t> budgets(40, 1);
  for (std::size_t i = 0; i < 10; ++i) budgets[i] = 9;  // 9x budget
  WorkShareParams params;
  params.votes_per_object = 10;
  cluster_votes(h.all_players(), h.env, 2, params, nullptr, budgets);
  // Every vote slot is one charged probe by an honest voter.
  EXPECT_EQ(h.env.oracle.total_probes(), 400u * 10u);
  // Big players carry ~9x the probes of small players (9*10 + 30 weight
  // units -> big: 400*10*9/120 = 300 expected, small: ~33).
  std::uint64_t big = 0, small = 0;
  for (PlayerId p = 0; p < 10; ++p) big += h.env.oracle.probes_by(p);
  for (PlayerId p = 10; p < 40; ++p) small += h.env.oracle.probes_by(p);
  const double big_mean = static_cast<double>(big) / 10.0;
  const double small_mean = static_cast<double>(small) / 30.0;
  EXPECT_GT(big_mean, 5.0 * small_mean);
}

TEST(Hetero, WeightedVotesResistLiars) {
  Harness h(identical_clusters(48, 96, 1, Rng(3)));
  Rng rng(4);
  h.population.corrupt_random(12, rng, [] { return std::make_unique<Inverter>(); });
  std::vector<std::size_t> budgets(48, 1);
  WorkShareParams params;
  params.votes_per_object = 21;
  const BitVector prediction =
      cluster_votes(h.all_players(), h.env, 3, params, nullptr, budgets);
  EXPECT_LE(prediction.hamming(h.world.matrix.row(0)), 5u);
}

TEST(Hetero, ClusterBudgetCheck) {
  std::vector<std::size_t> small(10, 5);  // total 50
  EXPECT_FALSE(cluster_budget_ok(small, 100, 1));
  std::vector<std::size_t> enough(10, 10);  // total 100
  EXPECT_TRUE(cluster_budget_ok(enough, 100, 1));
  EXPECT_FALSE(cluster_budget_ok(enough, 100, 2));
  std::vector<std::size_t> mixed{95, 1, 1, 1, 1, 1};  // one big player carries
  EXPECT_TRUE(cluster_budget_ok(mixed, 100, 1));
}

TEST(Hetero, DegenerateSingleMember) {
  Harness h(identical_clusters(4, 16, 4, Rng(5)));
  const std::vector<PlayerId> solo{1};
  const std::vector<std::size_t> budget{3};
  WorkShareParams params;
  params.votes_per_object = 3;
  const BitVector prediction = cluster_votes(solo, h.env, 4, params, nullptr, budget);
  EXPECT_EQ(prediction, h.world.matrix.row(1));
}

// ---------------------------------------------------------------------------
// Non-binary scores (§8).
// ---------------------------------------------------------------------------

TEST(ScoreMatrix, RoundTripAndDistance) {
  ScoreMatrix m(2, 4, 5);
  m.set_score(0, 0, 4);
  m.set_score(1, 0, 1);
  m.set_score(0, 3, 2);
  EXPECT_EQ(m.score(0, 0), 4);
  EXPECT_EQ(m.l1_distance(0, 1), 3u + 2u);  // |4-1| + |2-0|
  EXPECT_EQ(m.levels(), 5);
}

TEST(ScoreMatrix, LayerDecomposition) {
  ScoreMatrix m(1, 3, 4);
  m.set_score(0, 0, 0);
  m.set_score(0, 1, 2);
  m.set_score(0, 2, 3);
  const PreferenceMatrix l1 = m.layer(1);
  const PreferenceMatrix l3 = m.layer(3);
  EXPECT_FALSE(l1.preference(0, 0));
  EXPECT_TRUE(l1.preference(0, 1));
  EXPECT_TRUE(l1.preference(0, 2));
  EXPECT_FALSE(l3.preference(0, 1));
  EXPECT_TRUE(l3.preference(0, 2));
}

TEST(ScoreMatrix, LayerSumRecoversScore) {
  Rng rng(6);
  ScoreMatrix m(4, 16, 5);
  for (PlayerId p = 0; p < 4; ++p)
    for (ObjectId o = 0; o < 16; ++o)
      m.set_score(p, o, static_cast<std::uint8_t>(rng.below(5)));
  for (PlayerId p = 0; p < 4; ++p) {
    for (ObjectId o = 0; o < 16; ++o) {
      int sum = 0;
      for (std::uint8_t t = 1; t < 5; ++t)
        if (m.layer(t).preference(p, o)) ++sum;
      EXPECT_EQ(sum, m.score(p, o));
    }
  }
}

TEST(ScoredWorld, PlantedDiameterRespected) {
  const ScoredWorld w = planted_scored_clusters(40, 64, 4, 5, 10, Rng(7));
  for (std::uint32_t c = 0; c < 4; ++c) {
    std::vector<PlayerId> members;
    for (PlayerId p = 0; p < 40; ++p)
      if (w.cluster_of[p] == c) members.push_back(p);
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        EXPECT_LE(w.scores.l1_distance(members[i], members[j]), 10u);
  }
}

TEST(Scored, EndToEndL1ErrorBounded) {
  const std::size_t l1_diam = 8;
  const ScoredWorld w = planted_scored_clusters(128, 128, 4, 4, l1_diam, Rng(8));
  Population pop(128);
  Params params = Params::practical(4);
  const ScoredResult r = scored_calculate_preferences(w, pop, params, 9);
  // Threshold decomposition: error <= sum over 3 layers of O(D_layer),
  // and sum of layer diameters == L1 diameter.
  EXPECT_LE(scored_max_error(w, pop, r), 4 * l1_diam);
  EXPECT_GT(r.max_probes, 0u);
}

TEST(Scored, ToleratesSleepers) {
  const ScoredWorld w = planted_scored_clusters(128, 128, 4, 3, 6, Rng(10));
  Population pop(128);
  Rng rng(11);
  pop.corrupt_random(10, rng, [] { return std::make_unique<Sleeper>(); });
  Params params = Params::practical(4);
  const ScoredResult r = scored_calculate_preferences(w, pop, params, 12);
  EXPECT_LE(scored_max_error(w, pop, r), 5 * 6u);
}

TEST(Scored, BinaryLevelsMatchBinaryProtocolShape) {
  // levels=2 degenerates to the plain binary problem.
  const ScoredWorld w = planted_scored_clusters(128, 128, 4, 2, 8, Rng(13));
  Population pop(128);
  Params params = Params::practical(4);
  const ScoredResult r = scored_calculate_preferences(w, pop, params, 14);
  EXPECT_LE(scored_max_error(w, pop, r), 3 * 8u);
}

TEST(Scored, ProbeCostScalesWithLevels) {
  const ScoredWorld w3 = planted_scored_clusters(64, 64, 2, 3, 4, Rng(15));
  const ScoredWorld w5 = planted_scored_clusters(64, 64, 2, 5, 4, Rng(15));
  Population pop(64);
  Params params = Params::practical(2);
  const ScoredResult r3 = scored_calculate_preferences(w3, pop, params, 16);
  const ScoredResult r5 = scored_calculate_preferences(w5, pop, params, 16);
  // 4 layers vs 2 layers: ~2x probes.
  EXPECT_GT(r5.total_probes, r3.total_probes * 3 / 2);
}

}  // namespace
}  // namespace colscore
