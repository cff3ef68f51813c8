#include "src/protocols/zero_radius.hpp"

#include <gtest/gtest.h>

#include <map>

#include "src/common/mathutil.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

TEST(ZeroRadius, BaseCaseIsExact) {
  Harness h(identical_clusters(16, 16, 4, Rng(1)));
  ZeroRadiusParams params;
  params.budget = 4;  // base threshold 4*4*log2(16) >= universe
  const auto players = h.all_players();
  const auto objects = h.all_objects();
  const ZeroRadiusResult r = zero_radius(players, objects, params, h.env, 1);
  ASSERT_EQ(r.outputs.size(), players.size());
  for (std::size_t i = 0; i < players.size(); ++i)
    EXPECT_EQ(r.outputs[i], h.world.matrix.row(players[i]));
  EXPECT_EQ(r.stats.base_case_players, players.size());
}

TEST(ZeroRadius, EmptyInputsReturnEmpty) {
  Harness h(identical_clusters(8, 8, 2, Rng(4)));
  ZeroRadiusParams params;
  const std::vector<PlayerId> no_players;
  const std::vector<ObjectId> no_objects;
  const auto players = h.all_players();
  EXPECT_TRUE(zero_radius(no_players, h.all_objects(), params, h.env, 4)
                  .outputs.empty());
  const ZeroRadiusResult r = zero_radius(players, no_objects, params, h.env, 5);
  ASSERT_EQ(r.outputs.size(), players.size());
  for (const auto& v : r.outputs) EXPECT_EQ(v.size(), 0u);
}

TEST(ZeroRadius, SubsetOfPlayersAndObjects) {
  Harness h(identical_clusters(64, 64, 2, Rng(5)));
  ZeroRadiusParams params;
  params.budget = 2;
  std::vector<PlayerId> players;
  for (PlayerId p = 0; p < 64; p += 2) players.push_back(p);
  std::vector<ObjectId> objects;
  for (ObjectId o = 10; o < 40; ++o) objects.push_back(o);
  const ZeroRadiusResult r = zero_radius(players, objects, params, h.env, 6);
  ASSERT_EQ(r.outputs.size(), players.size());
  for (std::size_t i = 0; i < players.size(); ++i) {
    ASSERT_EQ(r.outputs[i].size(), objects.size());
    for (std::size_t j = 0; j < objects.size(); ++j)
      EXPECT_EQ(r.outputs[i].get(j), h.world.matrix.preference(players[i], objects[j]));
  }
}

TEST(ZeroRadius, ToleratesInvertersUpToBound) {
  Harness h(identical_clusters(512, 512, 2, Rng(8)));
  Rng rng(9);
  // n/(3B') = 512/6 ~ 85 inverters.
  h.population.corrupt_random(85, rng, [] { return std::make_unique<Inverter>(); });
  ZeroRadiusParams params;
  params.budget = 2;
  const auto players = h.all_players();
  const ZeroRadiusResult r =
      zero_radius(players, h.all_objects(), params, h.env, 8);
  std::size_t honest_wrong = 0;
  for (std::size_t i = 0; i < players.size(); ++i) {
    if (!h.population.is_honest(players[i])) continue;
    if (r.outputs[i] != h.world.matrix.row(players[i])) ++honest_wrong;
  }
  EXPECT_EQ(honest_wrong, 0u);
}

TEST(ZeroRadius, DeterministicForSameKeys) {
  Harness h1(identical_clusters(64, 64, 2, Rng(10)));
  Harness h2(identical_clusters(64, 64, 2, Rng(10)));
  ZeroRadiusParams params;
  params.budget = 2;
  const auto players = h1.all_players();
  const auto objects = h1.all_objects();
  const auto r1 = zero_radius(players, objects, params, h1.env, 42);
  const auto r2 = zero_radius(players, objects, params, h2.env, 42);
  for (std::size_t i = 0; i < players.size(); ++i)
    EXPECT_EQ(r1.outputs[i], r2.outputs[i]);
}

TEST(ZeroRadius, NoisyInvocationFallsBackGracefully) {
  // ZeroRadius has NO O(D) guarantee when the identical-twins precondition
  // is broken — support fragments because near-twins publish distinct
  // vectors. (That failure mode is exactly why SmallRadius wraps ZeroRadius
  // in small object subsets, Theorem 5.) What the fallback must guarantee is
  // containment: outputs stay far better than random guessing and the
  // protocol neither crashes nor exhausts budgets.
  Harness h(planted_clusters(512, 512, 2, 8, Rng(11)));
  ZeroRadiusParams params;
  params.budget = 2;
  const auto players = h.all_players();
  const ZeroRadiusResult r =
      zero_radius(players, h.all_objects(), params, h.env, 9);
  std::size_t max_err = 0;
  double mean_err = 0;
  for (std::size_t i = 0; i < players.size(); ++i) {
    const std::size_t e = h.world.matrix.row(players[i]).hamming(r.outputs[i]);
    max_err = std::max(max_err, e);
    mean_err += static_cast<double>(e);
  }
  mean_err /= static_cast<double>(players.size());
  EXPECT_LT(max_err, 512u / 3);   // contained (random guessing would be ~256)
  EXPECT_LT(mean_err, 512.0 / 8); // and typical players are far better
}

TEST(ZeroRadius, TooDeepRecursionDetectable) {
  // Failure injection: forcing recursion far below the sound threshold
  // (base_factor << 1) breaks cluster representation and produces wrong
  // outputs — evidence that the Θ(B' log n) base case is load-bearing.
  Harness h(identical_clusters(128, 128, 4, Rng(12)));
  ZeroRadiusParams params;
  params.budget = 4;
  params.base_factor = 0.25;  // recurse down to ~7 players
  params.verify_probes = 1;   // and disable the repair safety net
  const auto players = h.all_players();
  const ZeroRadiusResult r =
      zero_radius(players, h.all_objects(), params, h.env, 10);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < players.size(); ++i)
    if (r.outputs[i] != h.world.matrix.row(players[i])) ++wrong;
  EXPECT_GT(wrong, 0u);
}

TEST(ZeroRadiusStats, MergeAccumulates) {
  ZeroRadiusStats a, b;
  a.base_case_players = 3;
  a.fallbacks = 1;
  a.max_depth = 2;
  b.base_case_players = 4;
  b.empty_support = 5;
  b.repairs = 2;
  b.max_depth = 7;
  a.merge(b);
  EXPECT_EQ(a.base_case_players, 7u);
  EXPECT_EQ(a.fallbacks, 1u);
  EXPECT_EQ(a.empty_support, 5u);
  EXPECT_EQ(a.repairs, 2u);
  EXPECT_EQ(a.max_depth, 7u);
}

/// FNV-style hashes of one fixed-seed run at n = 256, B' = 4 (at least one
/// level of recursion, so every player runs adopt): every output bit and
/// every player's probe bill, plus the adoption counters.
struct AdoptionPin {
  std::uint64_t outputs = 0xcbf29ce484222325ULL;
  std::uint64_t probes_by = 0xcbf29ce484222325ULL;
  std::size_t fallbacks = 0;
  std::size_t repairs = 0;
  std::size_t max_depth = 0;
};

AdoptionPin pinned_run(World world, std::size_t inverters, std::uint64_t phase_key,
                       double base_factor = ZeroRadiusParams{}.base_factor) {
  Harness h(std::move(world));
  Rng rng(phase_key);
  h.population.corrupt_random(inverters, rng, [] { return std::make_unique<Inverter>(); });
  ZeroRadiusParams params;
  params.budget = 4;
  params.base_factor = base_factor;
  const auto players = h.all_players();
  const ZeroRadiusResult r = zero_radius(players, h.all_objects(), params, h.env, phase_key);
  AdoptionPin out;
  out.fallbacks = r.stats.fallbacks;
  out.repairs = r.stats.repairs;
  out.max_depth = r.stats.max_depth;
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

// Outputs, per-player charges and adoption counters of three runs that
// reach adopt, captured before adoption read its bits through a ProbeMemo:
// honest; inverters at n/(3B'); and a noisy planted invocation whose
// adopted vectors need repairs. With default constants adoption never
// exhausts its candidates (there are at most ~2B' of them), so the noisy
// run also recurses to single players (base_factor ~ 0): their merges see
// no publisher and take the probe-what-you-can fallback.
TEST(ZeroRadius, FixedSeedAdoptionOutputsAndChargesUnchanged) {
  const AdoptionPin honest = pinned_run(identical_clusters(256, 256, 4, Rng(31)), 0, 32);
  EXPECT_EQ(honest.outputs, 0x0c44eb840d988d25ULL);
  EXPECT_EQ(honest.probes_by, 0x4c3658c58e01264bULL);
  EXPECT_EQ(honest.fallbacks, 0u);
  EXPECT_EQ(honest.repairs, 0u);
  EXPECT_EQ(honest.max_depth, 1u);
  const AdoptionPin inverted =
      pinned_run(identical_clusters(256, 256, 4, Rng(33)), 256 / 12, 34);
  EXPECT_EQ(inverted.outputs, 0x4ef5f7e3c1679825ULL);
  EXPECT_EQ(inverted.probes_by, 0x78eeb6074eb78447ULL);
  EXPECT_EQ(inverted.fallbacks, 0u);
  EXPECT_EQ(inverted.repairs, 0u);
  EXPECT_EQ(inverted.max_depth, 1u);
  const AdoptionPin noisy =
      pinned_run(planted_clusters(256, 256, 4, 8, Rng(35)), 0, 36, /*base_factor=*/0.01);
  EXPECT_EQ(noisy.outputs, 0x6ed1d2575514f1feULL);
  EXPECT_EQ(noisy.probes_by, 0xbb9e39c967aed643ULL);
  EXPECT_EQ(noisy.fallbacks, 385u);
  EXPECT_EQ(noisy.repairs, 3136u);
  EXPECT_EQ(noisy.max_depth, 17u);
}

// Theorem 4's probe constant: max probes <= C * B' * log2 n. The base case
// alone may probe 4 B' log2 n objects; on the sweep below the ratio reads
// 3.9 (B' = 8) to 8.6 (B' = 2).
constexpr std::size_t kProbesPerBLog2N = 10;

TEST(ZeroRadius, ExactWithSublinearProbesAcrossSizesAndBudgets) {
  // Theorem 4: with >= n/B' identical twins per player, every output is
  // exact whp, at O(B' log n) probes per player. Over three seeds the mean
  // max probes must fall as a share of n from n = 512 to 1024, and rise
  // with B'. The whp claim is checked from n = 512 up: at n = 256, B' = 4,
  // 7.7% of players miss their vector. Each point also runs with n/(6B')
  // liars. Posting one shared vector gives them support about a third of
  // the adoption threshold at a merge, which must keep that vector out of
  // adoption: every honest player's probe bill must equal the one it pays
  // when the liars post unrelated random vectors. (At n/(3B') the liars'
  // share of a deep merge's publishers sometimes reaches the threshold.)
  std::map<std::pair<std::size_t, std::size_t>, double> max_probes;  // (n, B')
  for (const std::size_t n : {512, 1024}) {
    for (const std::size_t budget : {2, 4, 8}) {
      const ZeroRadiusParams params{.budget = budget};
      std::size_t depth = 0;  // halving stops once n / 2^depth <= 4 B' log2 n
      while ((n >> depth) > 4 * budget * log2_ceil(n)) ++depth;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " budget=" << budget << " seed=" << seed);
        Harness h(identical_clusters(n, n, budget, Rng(seed * 31)));
        const ZeroRadiusResult r =
            zero_radius(h.all_players(), h.all_objects(), params, h.env, seed);
        for (PlayerId i = 0; i < n; ++i)
          ASSERT_EQ(r.outputs[i], h.world.matrix.row(i)) << "player=" << i;
        EXPECT_EQ(r.stats.max_depth, depth);
        EXPECT_LE(h.oracle.max_probes(), kProbesPerBLog2N * budget * log2_ceil(n));
        max_probes[{n, budget}] += static_cast<double>(h.oracle.max_probes()) / 3;

        // The same n/(6B') players lie twice: each with its own random
        // vector (support 1), then all with one shared all-ones vector.
        // Honest outputs stay exact in both.
        std::unique_ptr<Harness> runs[2];
        ZeroRadiusResult outs[2];
        for (const bool shared : {false, true}) {
          runs[shared] =
              std::make_unique<Harness>(identical_clusters(n, n, budget, Rng(seed * 31)));
          Harness& run = *runs[shared];
          Rng rng(seed);
          run.population.corrupt_random(
              n / (6 * budget), rng, [shared]() -> std::unique_ptr<Behavior> {
                if (shared) return std::make_unique<ConstantReporter>(true);
                return std::make_unique<RandomLiar>();
              });
          outs[shared] = zero_radius(run.all_players(), run.all_objects(), params, run.env, seed);
        }
        for (PlayerId i = 0; i < n; ++i) {
          if (!runs[1]->population.is_honest(i)) continue;
          ASSERT_EQ(outs[0].outputs[i], h.world.matrix.row(i)) << "liars, player=" << i;
          ASSERT_EQ(outs[1].outputs[i], h.world.matrix.row(i)) << "liars, player=" << i;
          ASSERT_EQ(runs[1]->oracle.probes_by(i), runs[0]->oracle.probes_by(i)) << "player=" << i;
        }
      }
    }
  }
  for (const std::size_t budget : {2, 4, 8})
    EXPECT_LT((max_probes[{1024, budget}] / 1024), (max_probes[{512, budget}] / 512))
        << "budget=" << budget;
  for (const std::size_t n : {512, 1024}) {
    EXPECT_LT((max_probes[{n, 2}]), (max_probes[{n, 4}])) << "n=" << n;
    EXPECT_LT((max_probes[{n, 4}]), (max_probes[{n, 8}])) << "n=" << n;
  }
}

}  // namespace
}  // namespace colscore
