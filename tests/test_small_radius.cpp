#include "src/protocols/small_radius.hpp"

#include <gtest/gtest.h>

#include "src/common/mathutil.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

std::size_t max_honest_error(const Harness& h, std::span<const PlayerId> players,
                             const std::vector<BitVector>& outputs,
                             std::span<const ObjectId> objects) {
  std::size_t worst = 0;
  for (std::size_t i = 0; i < players.size(); ++i) {
    if (!h.population.is_honest(players[i])) continue;
    const BitVector truth = h.world.matrix.row(players[i]).gather(objects);
    worst = std::max(worst, truth.hamming(outputs[i]));
  }
  return worst;
}

TEST(SmallRadius, WorksOnObjectSubset) {
  Harness h(planted_clusters(96, 256, 3, 8, Rng(3)));
  SmallRadiusParams params;
  params.budget = 3;
  params.diameter = 8;
  const auto players = h.all_players();
  std::vector<ObjectId> subset;
  for (ObjectId o = 0; o < 256; o += 4) subset.push_back(o);
  const SmallRadiusResult r = small_radius(players, subset, params, h.env, 3);
  ASSERT_EQ(r.outputs.size(), players.size());
  ASSERT_EQ(r.outputs[0].size(), subset.size());
  EXPECT_LE(max_honest_error(h, players, r.outputs, subset), 5 * 8u);
}

TEST(SmallRadius, SubsetCountTracksDiameter) {
  Harness h(planted_clusters(64, 128, 2, 4, Rng(4)));
  SmallRadiusParams params;
  params.budget = 2;
  params.diameter = 16;
  params.subset_scale = 2.0;
  params.subset_exponent = 1.0;
  const auto players = h.all_players();
  const SmallRadiusResult r =
      small_radius(players, h.all_objects(), params, h.env, 4);
  EXPECT_EQ(r.stats.subsets, 32u);  // 2 * 16^1
}

TEST(SmallRadius, PaperExponentProducesMoreSubsets) {
  Harness h(planted_clusters(64, 128, 2, 4, Rng(5)));
  SmallRadiusParams params;
  params.budget = 2;
  params.diameter = 16;
  params.subset_scale = 1.0;
  params.subset_exponent = 1.5;
  const SmallRadiusResult r =
      small_radius(h.all_players(), h.all_objects(), params, h.env, 5);
  EXPECT_EQ(r.stats.subsets, 64u);  // 16^1.5
}

TEST(SmallRadius, ToleratesRandomLiars) {
  const std::size_t D = 8;
  Harness h(planted_clusters(128, 128, 4, D, Rng(6)));
  Rng rng(7);
  h.population.corrupt_random(10, rng, [] { return std::make_unique<RandomLiar>(); });
  SmallRadiusParams params;
  params.budget = 4;
  params.diameter = D;
  const auto players = h.all_players();
  const auto objects = h.all_objects();
  const SmallRadiusResult r = small_radius(players, objects, params, h.env, 6);
  EXPECT_LE(max_honest_error(h, players, r.outputs, objects), 5 * D);
}

TEST(SmallRadius, EmptyObjectsHandled) {
  Harness h(identical_clusters(16, 16, 2, Rng(8)));
  SmallRadiusParams params;
  const std::vector<ObjectId> none;
  const SmallRadiusResult r =
      small_radius(h.all_players(), none, params, h.env, 7);
  ASSERT_EQ(r.outputs.size(), 16u);
  for (const auto& v : r.outputs) EXPECT_TRUE(v.empty());
}

TEST(SmallRadius, DeterministicForSameKeys) {
  SmallRadiusParams params;
  params.budget = 4;
  params.diameter = 8;
  Harness h1(planted_clusters(64, 64, 4, 8, Rng(9)));
  Harness h2(planted_clusters(64, 64, 4, 8, Rng(9)));
  const auto players = h1.all_players();
  const auto objects = h1.all_objects();
  const auto r1 = small_radius(players, objects, params, h1.env, 10);
  const auto r2 = small_radius(players, objects, params, h2.env, 10);
  for (std::size_t i = 0; i < players.size(); ++i)
    EXPECT_EQ(r1.outputs[i], r2.outputs[i]);
}

TEST(SmallRadius, MoreRepeatsNeverHurtMuch) {
  const std::size_t D = 8;
  Harness h1(planted_clusters(96, 96, 3, D, Rng(11)));
  Harness h2(planted_clusters(96, 96, 3, D, Rng(11)));
  SmallRadiusParams one;
  one.budget = 3;
  one.diameter = D;
  one.repeats = 1;
  SmallRadiusParams three = one;
  three.repeats = 3;
  const auto players = h1.all_players();
  const auto objects = h1.all_objects();
  const auto r1 = small_radius(players, objects, one, h1.env, 12);
  const auto r3 = small_radius(players, objects, three, h2.env, 12);
  const std::size_t e1 = max_honest_error(h1, players, r1.outputs, objects);
  const std::size_t e3 = max_honest_error(h2, players, r3.outputs, objects);
  EXPECT_LE(e3, e1 + 2 * D);  // repeats give Select more shots, not fewer
}

/// FNV-style hashes of one fixed-seed run: every output bit, and every
/// player's probe bill.
struct RunHashes {
  std::uint64_t outputs = 0xcbf29ce484222325ULL;
  std::uint64_t probes_by = 0xcbf29ce484222325ULL;
  std::size_t settled_subsets = 0;
};

RunHashes fixed_seed_hashes(std::size_t n_objects, std::size_t diameter,
                            std::size_t max_finalists) {
  Harness h(planted_clusters(128, n_objects, 8, 6, Rng(21)));
  Rng rng(22);
  h.population.corrupt_random(12, rng, [] { return std::make_unique<RandomLiar>(); });
  SmallRadiusParams params;
  params.budget = 4;
  params.diameter = diameter;
  params.max_finalists = max_finalists;
  const auto players = h.all_players();
  const SmallRadiusResult r = small_radius(players, h.all_objects(), params, h.env, 23);
  RunHashes out;
  out.settled_subsets = r.stats.settled_subsets;
  for (const BitVector& v : r.outputs) {
    for (const std::uint64_t w : ConstBitRow(v).words()) {
      out.outputs ^= w;
      out.outputs *= 0x100000001b3ULL;
    }
  }
  for (const PlayerId p : players) {
    out.probes_by ^= h.oracle.probes_by(p);
    out.probes_by *= 0x100000001b3ULL;
  }
  return out;
}

// Golden hashes captured before Select was split into a per-subset plan and
// a per-player play: outputs and per-player charges must not move. The
// first run has subsets of ~8 objects (D = 8) and a prefilter on every U_i
// of more than 3 candidates; the second has subsets around 64 objects
// (D = 1), so both tournament paths run. The third (D = 32, subsets of ~2
// objects) settles 50 of its 128 subsets in closed form; its hashes were
// captured before forced subsets skipped the tournament.
TEST(SmallRadius, FixedSeedOutputsAndChargesUnchanged) {
  const RunHashes small_subsets = fixed_seed_hashes(128, 8, 3);
  EXPECT_EQ(small_subsets.outputs, 0x4c077530142a73dcULL);
  EXPECT_EQ(small_subsets.probes_by, 0xaae431f41a4ffec0ULL);
  EXPECT_EQ(small_subsets.settled_subsets, 0u);
  const RunHashes wide_subsets = fixed_seed_hashes(128, 1, 8);
  EXPECT_EQ(wide_subsets.outputs, 0xb696d683552f8d64ULL);
  EXPECT_EQ(wide_subsets.probes_by, 0x89540eb402fdfd67ULL);
  EXPECT_EQ(wide_subsets.settled_subsets, 0u);
  const RunHashes tiny_subsets = fixed_seed_hashes(128, 32, 3);
  EXPECT_EQ(tiny_subsets.outputs, 0x953594879b7a58b6ULL);
  EXPECT_EQ(tiny_subsets.probes_by, 0x65856a89b41641feULL);
  EXPECT_EQ(tiny_subsets.settled_subsets, 50u);  // sr_settled_subsets
}

class SmallRadiusDiameterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SmallRadiusDiameterSweep, FiveDBoundAcrossDiameters) {
  // Theorem 5: error within 5D, so exact on the identical clusters of
  // D = 0. Max probes are flat in D (416 to 465 here), so they are held
  // under kProbesPerBLnN * B ln n at every D; the paper's
  // B ln n D^1.5 (D + ln n) is 1.4k already at D = 4.
  constexpr double kProbesPerBLnN = 26.0;
  const std::size_t D = GetParam();
  Harness h(planted_clusters(128, 128, 4, D, Rng(100 + D)));
  SmallRadiusParams params;
  params.budget = 4;
  params.diameter = std::max<std::size_t>(D, 1);
  const auto players = h.all_players();
  const auto objects = h.all_objects();
  const SmallRadiusResult r = small_radius(players, objects, params, h.env, 13);
  EXPECT_LE(max_honest_error(h, players, r.outputs, objects), 5 * D);
  EXPECT_LE(static_cast<double>(h.oracle.max_probes()),
            kProbesPerBLnN * static_cast<double>(params.budget) * ln_clamped(128));
}

INSTANTIATE_TEST_SUITE_P(Diameters, SmallRadiusDiameterSweep,
                         ::testing::Values(0, 2, 4, 8, 12, 16));

}  // namespace
}  // namespace colscore
