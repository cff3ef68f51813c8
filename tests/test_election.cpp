#include "src/protocols/election.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

TEST(Election, AllHonestElectsSomeone) {
  Harness h(identical_clusters(64, 64, 2, Rng(1)));
  const ElectionResult r = feige_election(h.env, 1);
  EXPECT_NE(r.leader, kInvalidPlayer);
  EXPECT_TRUE(r.leader_honest);
  EXPECT_GT(r.rounds, 0u);
}

TEST(Election, SinglePlayerTrivial) {
  Harness h(identical_clusters(1, 4, 1, Rng(2)));
  const ElectionResult r = feige_election(h.env, 2);
  EXPECT_EQ(r.leader, 0u);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Election, TwoPlayers) {
  Harness h(identical_clusters(2, 4, 1, Rng(3)));
  const ElectionResult r = feige_election(h.env, 3);
  EXPECT_NE(r.leader, kInvalidPlayer);
  EXPECT_LT(r.leader, 2u);
}

TEST(Election, DeterministicForSameKey) {
  Harness h1(identical_clusters(64, 64, 2, Rng(4)));
  Harness h2(identical_clusters(64, 64, 2, Rng(4)));
  const ElectionResult a = feige_election(h1.env, 9);
  const ElectionResult b = feige_election(h2.env, 9);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Election, DifferentKeysVaryLeader) {
  Harness h(identical_clusters(64, 64, 2, Rng(5)));
  std::set<PlayerId> leaders;
  for (std::uint64_t key = 0; key < 20; ++key)
    leaders.insert(feige_election(h.env, 100 + key).leader);
  EXPECT_GT(leaders.size(), 3u);  // election is actually randomized
}

TEST(Election, HonestMajorityWinsConstantFraction) {
  // §7.1: with (1 + delta) n / 2 honest players, an honest leader wins with
  // probability Omega(delta^1.65) despite the rushing adversary. The rates
  // read 0.76 to 0.82 up to 45% colluders, where delta^1.65 is 0.02.
  for (const std::size_t dishonest : {12, 30, 39, 54}) {  // 10, 25, 33, 45%
    Harness h(identical_clusters(120, 16, 2, Rng(6)));
    Rng rng(7);
    h.population.corrupt_random(dishonest, rng,
                                [] { return std::make_unique<Inverter>(); });
    std::size_t honest_wins = 0;
    const std::size_t trials = 100;
    for (std::uint64_t key = 0; key < trials; ++key)
      if (feige_election(h.env, 1000 + key).leader_honest) ++honest_wins;
    const double delta = 1.0 - 2.0 * static_cast<double>(dishonest) / 120;
    EXPECT_GE(static_cast<double>(honest_wins) / trials, std::pow(delta, 1.65))
        << "dishonest=" << dishonest << " honest_wins=" << honest_wins;
  }
}

TEST(Election, AdversaryDoesGainFromRushing) {
  // The rushing adversary should win the leadership noticeably more often
  // than its population share under at least some configurations.
  Harness h(identical_clusters(100, 16, 2, Rng(8)));
  Rng rng(9);
  h.population.corrupt_random(33, rng, [] { return std::make_unique<Inverter>(); });
  std::size_t dishonest_wins = 0;
  const std::size_t trials = 60;
  for (std::uint64_t key = 0; key < trials; ++key)
    if (!feige_election(h.env, 5000 + key).leader_honest) ++dishonest_wins;
  EXPECT_GT(dishonest_wins, 0u);  // rushing is not a no-op
  EXPECT_LT(dishonest_wins, trials);  // but cannot always win
}

TEST(Election, BinLoadParameterRespected) {
  Harness h(identical_clusters(64, 16, 2, Rng(10)));
  ElectionParams params;
  params.bin_load = 4;
  const ElectionResult r = feige_election(h.env, 10, params);
  EXPECT_NE(r.leader, kInvalidPlayer);
  // Smaller bins -> more rounds than the default would need; at minimum the
  // protocol still terminates under max_rounds.
  EXPECT_LE(r.rounds, params.max_rounds);
}

TEST(Election, AllDishonestStillTerminates) {
  Harness h(identical_clusters(32, 8, 1, Rng(11)));
  Rng rng(12);
  h.population.corrupt_random(31, rng, [] { return std::make_unique<Inverter>(); });
  const ElectionResult r = feige_election(h.env, 11);
  EXPECT_NE(r.leader, kInvalidPlayer);
}

TEST(Election, PostsChoicesToBoard) {
  Harness h(identical_clusters(16, 8, 1, Rng(13)));
  feige_election(h.env, 20);
  // Round 0 posts one report per player.
  const std::uint64_t round0 = mix_keys(20, 0xe1ec7ULL, 0);
  EXPECT_GE(h.board.all_reports(round0).size(), 16u);
}

}  // namespace
}  // namespace colscore
