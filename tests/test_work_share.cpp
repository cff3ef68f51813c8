#include "src/protocols/work_share.hpp"

#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

TEST(WorkShare, IdenticalClusterVotesPerfectly) {
  Harness h(identical_clusters(32, 64, 1, Rng(1)));
  WorkShareParams params;
  params.votes_per_object = 9;
  const auto members = h.all_players();
  const BitVector prediction = cluster_votes(members, h.env, 1, params);
  EXPECT_EQ(prediction, h.world.matrix.row(0));
}

TEST(WorkShare, ProbeCostSharedAcrossCluster) {
  // Lemma 10: no member probes more than ~(n_objects * votes / |cluster|).
  Harness h(identical_clusters(64, 256, 1, Rng(2)));
  WorkShareParams params;
  params.votes_per_object = 8;
  cluster_votes(h.all_players(), h.env, 2, params);
  const std::uint64_t expected_mean = 256 * 8 / 64;  // 32
  EXPECT_LT(h.env.oracle.max_probes(), 4 * expected_mean);
  EXPECT_GT(h.env.oracle.total_probes(), 0u);
}

TEST(WorkShare, ReportsLandOnBoard) {
  Harness h(identical_clusters(16, 32, 1, Rng(3)));
  WorkShareParams params;
  params.votes_per_object = 5;
  WorkShareStats stats;
  cluster_votes(h.all_players(), h.env, 77, params, &stats);
  EXPECT_EQ(stats.reports, 32u * 5u);
  std::size_t on_board = 0;
  for (ObjectId o = 0; o < 32; ++o) on_board += h.board.reports_for(77, o).size();
  EXPECT_EQ(on_board, 32u * 5u);
}

TEST(WorkShare, MajorityDefeatsMinorityLiars) {
  // Lemma 13 core: < 1/3 dishonest in the cluster cannot flip objects the
  // honest members agree on.
  Harness h(identical_clusters(60, 128, 1, Rng(4)));
  Rng rng(5);
  h.population.corrupt_random(18, rng, [] { return std::make_unique<Inverter>(); });
  WorkShareParams params;
  params.votes_per_object = 15;
  const BitVector prediction = cluster_votes(h.all_players(), h.env, 3, params);
  const std::size_t errors = prediction.hamming(h.world.matrix.row(0));
  // With 30% inverters and 15 votes/object a few objects may flip, but the
  // vast majority must be correct.
  EXPECT_LE(errors, 128u / 10);
}

TEST(WorkShare, MajorityLiarsDoBreakIt) {
  // Sanity inversion: over half dishonest and the prediction collapses —
  // confirming the n/(3B) bound is load-bearing.
  Harness h(identical_clusters(60, 128, 1, Rng(6)));
  Rng rng(7);
  h.population.corrupt_random(40, rng, [] { return std::make_unique<Inverter>(); });
  WorkShareParams params;
  params.votes_per_object = 15;
  const BitVector prediction = cluster_votes(h.all_players(), h.env, 4, params);
  const std::size_t errors = prediction.hamming(h.world.matrix.row(0));
  EXPECT_GT(errors, 128u / 2);
}

TEST(WorkShare, PlantedClusterErrorTracksDiameter) {
  // Lemma 12: within a diameter-D cluster the majority vote errs on O(D)
  // objects for any member.
  const std::size_t D = 12;
  Harness h(planted_clusters(64, 256, 1, D, Rng(8)));
  WorkShareParams params;
  params.votes_per_object = 11;
  const BitVector prediction = cluster_votes(h.all_players(), h.env, 5, params);
  for (PlayerId p = 0; p < 8; ++p) {
    EXPECT_LE(prediction.hamming(h.world.matrix.row(p)), 3 * D);
  }
}

TEST(WorkShare, SingleMemberClusterProbesAlone) {
  Harness h(identical_clusters(4, 16, 4, Rng(9)));
  WorkShareParams params;
  params.votes_per_object = 3;
  const std::vector<PlayerId> solo{2};
  const BitVector prediction = cluster_votes(solo, h.env, 6, params);
  EXPECT_EQ(prediction, h.world.matrix.row(2));
  EXPECT_GE(h.env.oracle.probes_by(2), 16u);
  EXPECT_EQ(h.env.oracle.probes_by(0), 0u);
}

TEST(WorkShare, DeterministicForSameKey) {
  Harness h1(planted_clusters(32, 64, 1, 6, Rng(10)));
  Harness h2(planted_clusters(32, 64, 1, 6, Rng(10)));
  WorkShareParams params;
  params.votes_per_object = 7;
  const BitVector a = cluster_votes(h1.all_players(), h1.env, 11, params);
  const BitVector b = cluster_votes(h2.all_players(), h2.env, 11, params);
  EXPECT_EQ(a, b);

  // Unit weights (§8) draw exactly the unweighted voters: same prediction,
  // same charge for every player, same reports.
  Harness h3(planted_clusters(32, 64, 1, 6, Rng(10)));
  const std::vector<std::size_t> unit(32, 1);
  const BitVector c = cluster_votes(h3.all_players(), h3.env, 11, params, nullptr, unit);
  EXPECT_EQ(a, c);
  for (PlayerId p = 0; p < 32; ++p)
    EXPECT_EQ(h1.env.oracle.probes_by(p), h3.env.oracle.probes_by(p)) << "player " << p;
  EXPECT_EQ(h1.board.report_count(), h3.board.report_count());
  const auto ra = h1.board.all_reports(11);
  const auto rc = h3.board.all_reports(11);
  ASSERT_EQ(ra.size(), rc.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].author, rc[i].author) << "slot " << i;
    EXPECT_EQ(ra[i].value, rc[i].value) << "slot " << i;
  }
}

TEST(WorkShare, SleeperLiesOnlyInVotePhase) {
  // A sleeper behaves honestly elsewhere but lies here; with enough of them
  // the cluster degrades exactly like inverters.
  Harness h(identical_clusters(30, 64, 1, Rng(12)));
  Rng rng(13);
  h.population.corrupt_random(20, rng, [] { return std::make_unique<Sleeper>(); });
  WorkShareParams params;
  params.votes_per_object = 9;
  const BitVector prediction = cluster_votes(h.all_players(), h.env, 12, params);
  EXPECT_GT(prediction.hamming(h.world.matrix.row(0)), 64u / 4);
}

// Golden board state of one fixed-seed vote with Inverter liars, captured
// when every object's votes were a separate (tag, object) bucket: the
// channel's (author, object, value) sequence in all_reports order, and the
// vote-slot order of one object's reports.
TEST(WorkShare, FixedSeedBoardStateUnchanged) {
  Harness h(planted_clusters(48, 96, 1, 8, Rng(30)));
  Rng rng(31);
  h.population.corrupt_random(12, rng, [] { return std::make_unique<Inverter>(); });
  WorkShareParams params;
  params.votes_per_object = 7;
  constexpr std::uint64_t kTag = 0x5107;
  cluster_votes(h.all_players(), h.env, kTag, params);

  const auto all = h.board.all_reports(kTag);
  ASSERT_EQ(all.size(), 96u * 7u);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const ProbeReport& r : all) {
    for (const std::uint64_t field :
         {std::uint64_t{r.author}, std::uint64_t{r.object}, std::uint64_t{r.value}}) {
      hash ^= field;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, 0xe9c91c23376f4f8eULL);

  std::vector<PlayerId> slot_order;
  std::vector<bool> values;
  for (const ProbeReport& r : h.board.reports_for(kTag, 41)) {
    slot_order.push_back(r.author);
    values.push_back(r.value);
  }
  EXPECT_EQ(slot_order, (std::vector<PlayerId>{34, 12, 24, 1, 11, 10, 37}));
  EXPECT_EQ(values, (std::vector<bool>{true, true, false, true, true, true, true}));
}

class WorkShareVoteSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkShareVoteSweep, MoreVotesMoreRobust) {
  const std::size_t votes = GetParam();
  Harness h(identical_clusters(60, 128, 1, Rng(20)));
  Rng rng(21);
  h.population.corrupt_random(15, rng, [] { return std::make_unique<Inverter>(); });
  WorkShareParams params;
  params.votes_per_object = votes;
  const BitVector prediction =
      cluster_votes(h.all_players(), h.env, 100 + votes, params);
  const std::size_t errors = prediction.hamming(h.world.matrix.row(0));
  // 25% liars: even 5 votes keep most objects right; 21 votes nearly all.
  EXPECT_LE(errors, votes >= 21 ? 3u : 26u);
}

INSTANTIATE_TEST_SUITE_P(Votes, WorkShareVoteSweep, ::testing::Values(5, 9, 21));

}  // namespace
}  // namespace colscore
