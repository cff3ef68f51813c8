#include "src/core/calculate_preferences.hpp"

#include <gtest/gtest.h>

#include "src/metrics/error.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

std::size_t max_honest_error(const Harness& h, const ProtocolResult& r) {
  const auto honest = h.population.honest_players();
  const auto errors = hamming_errors(h.world.matrix, r.outputs, honest);
  return errors.empty() ? 0 : *std::max_element(errors.begin(), errors.end());
}

TEST(CalculatePreferences, EasyCaseProbesEverything) {
  // B >= n / log2 n triggers the §6.1 shortcut.
  Harness h(planted_clusters(32, 32, 2, 4, Rng(1)));
  Params params = Params::practical(/*budget=*/32);
  const ProtocolResult r = calculate_preferences(h.env, params, 1);
  EXPECT_TRUE(r.easy_case);
  EXPECT_EQ(max_honest_error(h, r), 0u);
  EXPECT_EQ(r.max_probes, 32u);
}

TEST(CalculatePreferences, HonestPlantedClustersRecovered) {
  const std::size_t D = 16;
  Harness h(planted_clusters(256, 256, 8, D, Rng(2)));
  Params params = Params::practical(8);
  const ProtocolResult r = calculate_preferences(h.env, params, 2);
  EXPECT_FALSE(r.easy_case);
  EXPECT_LE(max_honest_error(h, r), 2 * D);
  EXPECT_FALSE(r.iterations.empty());
}

TEST(CalculatePreferences, IdenticalClustersNearExact) {
  Harness h(identical_clusters(256, 256, 8, Rng(3)));
  Params params = Params::practical(8);
  const ProtocolResult r = calculate_preferences(h.env, params, 3);
  EXPECT_LE(max_honest_error(h, r), 4u);
}

TEST(CalculatePreferences, ClustersFormOnGoodIteration) {
  Harness h(planted_clusters(256, 256, 8, 8, Rng(4)));
  Params params = Params::practical(8);
  const ProtocolResult r = calculate_preferences(h.env, params, 4);
  bool some_iteration_found_structure = false;
  for (const auto& it : r.iterations)
    if (it.clusters >= 6 && it.min_cluster >= 256 / 8 * 2 / 3)
      some_iteration_found_structure = true;
  EXPECT_TRUE(some_iteration_found_structure);
}

TEST(CalculatePreferences, ProbeAccountingConsistent) {
  Harness h(planted_clusters(128, 128, 4, 8, Rng(5)));
  Params params = Params::practical(4);
  const ProtocolResult r = calculate_preferences(h.env, params, 5);
  std::uint64_t total = 0, peak = 0;
  for (const auto c : r.probes_by_player) {
    total += c;
    peak = std::max(peak, c);
  }
  EXPECT_EQ(total, r.total_probes);
  EXPECT_EQ(peak, r.max_probes);
  EXPECT_EQ(r.total_probes, h.env.oracle.total_probes());
}

TEST(CalculatePreferences, OutputsHaveRightShape) {
  Harness h(planted_clusters(64, 64, 2, 4, Rng(6)));
  Params params = Params::practical(2);
  const ProtocolResult r = calculate_preferences(h.env, params, 6);
  ASSERT_EQ(r.outputs.size(), 64u);
  for (const auto& v : r.outputs) EXPECT_EQ(v.size(), 64u);
}

TEST(CalculatePreferences, ToleratesRandomLiarsAtBound) {
  const std::size_t n = 256, B = 8, D = 8;
  Harness h(planted_clusters(n, n, B, D, Rng(7)));
  Rng rng(8);
  h.population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<RandomLiar>(); });
  Params params = Params::practical(B);
  const ProtocolResult r = calculate_preferences(h.env, params, 7);
  EXPECT_LE(max_honest_error(h, r), 3 * D);
}

TEST(CalculatePreferences, ToleratesSleepersAtBound) {
  const std::size_t n = 256, B = 8, D = 8;
  Harness h(planted_clusters(n, n, B, D, Rng(9)));
  Rng rng(10);
  h.population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<Sleeper>(); });
  Params params = Params::practical(B);
  const ProtocolResult r = calculate_preferences(h.env, params, 8);
  EXPECT_LE(max_honest_error(h, r), 4 * D);
}

TEST(CalculatePreferences, HijackersCannotDestroyVictim) {
  // The §7.2 hijack: mimics join the victim's cluster then betray. With
  // <= n/(3B) of them the victim's predictions stay O(D).
  const std::size_t n = 256, B = 8, D = 8;
  Harness h(planted_clusters(n, n, B, D, Rng(11)));
  Rng rng(12);
  const World& w = h.world;
  h.population.corrupt_random(
      n / (3 * B), rng,
      [&w] { return std::make_unique<ClusterHijacker>(w.matrix, 0); },
      /*protected_player=*/0);
  Params params = Params::practical(B);
  const ProtocolResult r = calculate_preferences(h.env, params, 9);
  const std::size_t victim_error = w.matrix.row(0).hamming(r.outputs[0]);
  EXPECT_LE(victim_error, 4 * D);
}

TEST(CalculatePreferences, DeterministicForSameSeeds) {
  Params params = Params::practical(4);
  Harness h1(planted_clusters(128, 128, 4, 8, Rng(13)));
  Harness h2(planted_clusters(128, 128, 4, 8, Rng(13)));
  const ProtocolResult a = calculate_preferences(h1.env, params, 10);
  const ProtocolResult b = calculate_preferences(h2.env, params, 10);
  for (PlayerId p = 0; p < 128; ++p) EXPECT_EQ(a.outputs[p], b.outputs[p]);
  EXPECT_EQ(a.total_probes, b.total_probes);
}

TEST(CalculatePreferences, UniformRandomDegradesGracefully) {
  // No structure -> collaboration can't help much, but the protocol must
  // not crash and must emit outputs.
  Harness h(uniform_random(128, 128, Rng(14)));
  Params params = Params::practical(4);
  const ProtocolResult r = calculate_preferences(h.env, params, 11);
  EXPECT_EQ(r.outputs.size(), 128u);
}

TEST(CalculatePreferences, PaperPresetRuns) {
  Harness h(planted_clusters(64, 64, 4, 4, Rng(15)));
  Params params = Params::paper(4);
  const ProtocolResult r = calculate_preferences(h.env, params, 12);
  EXPECT_EQ(r.outputs.size(), 64u);
}

// The retention contract: the library's counts board and the kFull log are
// one board to the protocols. Every output, per-player probe bill and board
// count must match, serial and on a 4-worker pool.
struct BoardRun {
  std::vector<BitVector> outputs;
  std::vector<std::uint64_t> probes_by;
  std::uint64_t reports = 0;
  std::uint64_t vectors = 0;
};

BoardRun run_on_board(BoardRetention retention, bool hijack,
                      const ExecPolicy& policy) {
  const std::size_t n = 128, B = 4;
  const World world = planted_clusters(n, n, B, 8, Rng(21));
  Population population(world.n_players());
  Rng rng(22);
  if (hijack) {
    population.corrupt_random(
        n / (3 * B), rng,
        [&world] { return std::make_unique<ClusterHijacker>(world.matrix, 0); },
        /*protected_player=*/0);
  } else {
    population.corrupt_random(n / (3 * B), rng,
                              [] { return std::make_unique<Sleeper>(); });
  }
  ProbeOracle oracle(world.matrix);
  BulletinBoard board(retention);
  HonestBeacon beacon(0xbeac0ULL);
  ProtocolEnv env(oracle, board, population, beacon,
                  mix_keys(0xbeac0ULL, 0x10ca1ULL), policy);
  oracle.bind_policy(env.policy);
  const ProtocolResult r = calculate_preferences(env, Params::practical(B), 23);
  BoardRun run;
  run.outputs = r.outputs;
  for (PlayerId p = 0; p < n; ++p) run.probes_by.push_back(oracle.probes_by(p));
  run.reports = board.report_count();
  run.vectors = board.vector_count();
  return run;
}

TEST(CalculatePreferences, CountsBoardMatchesFullLog) {
  const ExecPolicy one = ExecPolicy::serial();
  ThreadPool pool(4);
  const ExecPolicy four = ExecPolicy::pool(pool);
  for (const bool hijack : {false, true}) {
    const BoardRun want = run_on_board(BoardRetention::kFull, hijack, one);
    ASSERT_GT(want.reports, 0u);
    ASSERT_GT(want.vectors, 0u);
    for (const BoardRetention retention :
         {BoardRetention::kCounts, BoardRetention::kFull}) {
      for (const ExecPolicy* policy : {&one, &four}) {
        SCOPED_TRACE(std::string(hijack ? "hijacker" : "sleeper") +
                     (retention == BoardRetention::kCounts ? " counts" : " full") +
                     (policy == &four ? " threads=4" : " threads=1"));
        const BoardRun got = run_on_board(retention, hijack, *policy);
        EXPECT_EQ(got.outputs, want.outputs);
        EXPECT_EQ(got.probes_by, want.probes_by);
        EXPECT_EQ(got.reports, want.reports);
        EXPECT_EQ(got.vectors, want.vectors);
      }
    }
  }
}

class CalcPrefDiameterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CalcPrefDiameterSweep, ErrorScalesWithPlantedDiameter) {
  const std::size_t D = GetParam();
  Harness h(planted_clusters(256, 256, 8, D, Rng(50 + D)));
  Params params = Params::practical(8);
  const ProtocolResult r = calculate_preferences(h.env, params, 13);
  EXPECT_LE(max_honest_error(h, r), std::max<std::size_t>(3 * D, 6));
}

INSTANTIATE_TEST_SUITE_P(Diameters, CalcPrefDiameterSweep,
                         ::testing::Values(0, 4, 16, 32));

}  // namespace
}  // namespace colscore
