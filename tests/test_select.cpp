#include "src/protocols/select.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.hpp"

namespace colscore {
namespace {

using testutil::Harness;

/// Candidates at controlled distances from player 0's truth.
struct SelectFixture {
  Harness h;
  std::vector<ObjectId> objects;
  std::vector<BitVector> candidates;

  explicit SelectFixture(std::size_t n_objects = 512, std::uint64_t seed = 1)
      : h(uniform_random(4, n_objects, Rng(seed))) {
    objects = h.all_objects();
  }

  /// Adds a candidate at exactly `distance` from player 0's truth.
  void add_candidate(std::size_t distance, std::uint64_t seed) {
    BitVector c = h.world.matrix.row(0);
    Rng rng(seed);
    c.flip_random(rng, distance);
    candidates.push_back(std::move(c));
  }

  /// Zero-copy views of the candidates, the form every Select entry takes.
  std::vector<ConstBitRow> views() const {
    return std::vector<ConstBitRow>(candidates.begin(), candidates.end());
  }

  std::size_t dist(std::size_t idx) const {
    return h.world.matrix.row(0).hamming(candidates[idx]);
  }
};

TEST(RSelect, SingleCandidateCostsNothing) {
  SelectFixture f;
  f.add_candidate(100, 1);
  const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, 1, 16);
  EXPECT_EQ(out.chosen, 0u);
  EXPECT_EQ(out.probes, 0u);
}

TEST(RSelect, PicksExactMatchOverFarCandidate) {
  SelectFixture f;
  f.add_candidate(0, 1);    // the truth itself
  f.add_candidate(200, 2);  // far away
  const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, 2, 16);
  EXPECT_EQ(out.chosen, 0u);
}

TEST(RSelect, OrderDoesNotMatterForClearWinner) {
  SelectFixture f;
  f.add_candidate(250, 1);
  f.add_candidate(0, 2);
  const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, 3, 16);
  EXPECT_EQ(out.chosen, 1u);
}

// Theorem 3's probe constant: probes <= C * k^2 * log2 n. On the inputs
// below, probes/(k^2 log2 n) averages 0.43 at k = 2 (at most 0.45, and one
// pair's 22 probes cap it at 0.5) and falls to 0.14 at k = 16.
constexpr double kProbesPerK2LogN = 0.5;

TEST(RSelect, ProbeComplexityQuadraticInK) {
  // Theorem 3: O(k^2 log n) probes, and the chosen candidate within O(1) of
  // the best. Candidate i sits 16 * (1 + (i + k/2) mod k) from the truth,
  // so the best one is mid-list. 19 of these 20 runs pick the best; k = 2,
  // seed 2 picks the runner-up at twice its distance.
  const std::size_t n_objects = 2048, per_pair = 22;  // ~2 log2 n
  for (const std::size_t k : {2, 4, 8, 16}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SelectFixture f(n_objects, seed);
      for (std::size_t i = 0; i < k; ++i)
        f.add_candidate(16 * (1 + (i + k / 2) % k), seed * 13 + i);
      const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, seed, per_pair);
      EXPECT_LE(f.dist(out.chosen), 2 * 16u) << "k=" << k << " seed=" << seed;
      EXPECT_LE(out.pairs_probed, k * (k - 1) / 2);
      EXPECT_LE(static_cast<double>(out.probes),
                kProbesPerK2LogN * static_cast<double>(k * k) * std::log2(n_objects))
          << "k=" << k << " seed=" << seed;
    }
  }
}

TEST(RSelect, ChargesProbesToPlayer) {
  SelectFixture f;
  f.add_candidate(100, 1);
  f.add_candidate(400, 2);
  const auto before = f.h.oracle.probes_by(0);
  const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, 5, 8);
  EXPECT_EQ(f.h.oracle.probes_by(0) - before, out.probes);
  EXPECT_GT(out.probes, 0u);
}

TEST(RSelect, IdenticalCandidatesSkipped) {
  SelectFixture f;
  f.add_candidate(50, 1);
  f.candidates.push_back(f.candidates[0]);  // exact duplicate
  const SelectOutcome out = rselect(0, f.views(), f.objects, f.h.env, 6, 16);
  EXPECT_EQ(out.probes, 0u);  // no differing positions to probe
}

TEST(SelectDeterministic, SameKeySameOutcome) {
  SelectFixture f;
  f.add_candidate(30, 1);
  f.add_candidate(200, 2);
  f.add_candidate(90, 3);
  const SelectOutcome a =
      select_deterministic(0, f.views(), f.objects, f.h.env, 7, 16, 0);
  const SelectOutcome b =
      select_deterministic(0, f.views(), f.objects, f.h.env, 7, 16, 0);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.pairs_probed, b.pairs_probed);
}

TEST(SelectDeterministic, SkipBelowAvoidsProbingClosePairs) {
  SelectFixture f;
  f.add_candidate(5, 1);
  // Second candidate differs from the first in <= 10 positions.
  BitVector near = f.candidates[0];
  Rng rng(55);
  near.flip_random(rng, 8);
  f.candidates.push_back(std::move(near));
  const SelectOutcome out =
      select_deterministic(0, f.views(), f.objects, f.h.env, 8, 16,
                           /*skip_below=*/16);
  EXPECT_EQ(out.probes, 0u);  // the only pair is under the threshold
  EXPECT_LE(f.dist(out.chosen), 5u + 8u);
}

TEST(SelectDeterministic, ContractHoldsWithDCloseCandidate) {
  // The Select contract (§5.3): if some candidate is within D of v(p), the
  // output is within O(D).
  const std::size_t D = 20;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SelectFixture f(512, seed);
    f.add_candidate(D, seed + 10);
    f.add_candidate(150, seed + 20);
    f.add_candidate(250, seed + 30);
    const SelectOutcome out =
        select_deterministic(0, f.views(), f.objects, f.h.env, seed, 24, D);
    EXPECT_LE(f.dist(out.chosen), 5 * D) << "seed=" << seed;
  }
}

TEST(SelectPrefiltered, FallsThroughForSmallSets) {
  SelectFixture f;
  f.add_candidate(10, 1);
  f.add_candidate(200, 2);
  const std::vector<ConstBitRow> views = f.views();
  const SelectPlan plan(views, f.objects);
  const SelectOutcome out =
      select_prefiltered(0, plan, f.h.env, 9, 16, 16, /*max_finalists=*/8, 0);
  EXPECT_EQ(f.dist(out.chosen), 10u);
}

TEST(SelectPrefiltered, SurvivesLargeCandidateSets) {
  SelectFixture f(1024, 5);
  f.add_candidate(15, 1);  // the good one
  for (std::uint64_t i = 0; i < 30; ++i) f.add_candidate(300 + i, 50 + i);
  const std::vector<ConstBitRow> views = f.views();
  const SelectPlan plan(views, f.objects);
  const SelectOutcome out = select_prefiltered(0, plan, f.h.env, 10, 16,
                                               /*prefilter=*/48,
                                               /*max_finalists=*/6, 0);
  EXPECT_LE(f.dist(out.chosen), 60u);
  // Probe cost must be far below the full k^2 tournament.
  const std::size_t full_pairs = 31 * 30 / 2;
  EXPECT_LT(out.probes, full_pairs * 16 / 4);
}

TEST(SelectPrefiltered, MapsIndicesBackCorrectly) {
  SelectFixture f(512, 6);
  for (std::uint64_t i = 0; i < 20; ++i) f.add_candidate(200 + 5 * i, 90 + i);
  f.add_candidate(0, 999);  // truth is the last candidate (index 20)
  const std::vector<ConstBitRow> views = f.views();
  const SelectPlan plan(views, f.objects);
  const SelectOutcome out = select_prefiltered(0, plan, f.h.env, 11, 16, 64, 4, 0);
  EXPECT_EQ(out.chosen, 20u);
}

TEST(SelectOutcome, DishonestPlayerProbesAreFree) {
  SelectFixture f;
  f.h.population.set_behavior(0, std::make_unique<Inverter>());
  f.add_candidate(100, 1);
  f.add_candidate(300, 2);
  rselect(0, f.views(), f.objects, f.h.env, 12, 8);
  EXPECT_EQ(f.h.oracle.probes_by(0), 0u);  // peeked, not probed
}

}  // namespace
}  // namespace colscore
