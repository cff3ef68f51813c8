#include <gtest/gtest.h>

#include "src/metrics/error.hpp"
#include "src/metrics/optimal.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

TEST(HammingErrors, ExactOutputsZeroError) {
  const World w = planted_clusters(16, 32, 2, 4, Rng(1));
  std::vector<BitVector> outputs;
  for (PlayerId p = 0; p < 16; ++p) outputs.push_back(w.matrix.row(p));
  std::vector<PlayerId> players{0, 5, 15};
  const auto errors = hamming_errors(w.matrix, outputs, players);
  for (auto e : errors) EXPECT_EQ(e, 0u);
}

TEST(HammingErrors, CountsFlips) {
  const World w = planted_clusters(8, 64, 1, 0, Rng(2));
  std::vector<BitVector> outputs;
  for (PlayerId p = 0; p < 8; ++p) outputs.push_back(w.matrix.row(p));
  outputs[3].flip(0);
  outputs[3].flip(10);
  outputs[3].flip(63);
  std::vector<PlayerId> players{2, 3};
  const auto errors = hamming_errors(w.matrix, outputs, players);
  EXPECT_EQ(errors[0], 0u);
  EXPECT_EQ(errors[1], 3u);
}

TEST(ErrorStats, MaxAndMeanOverPlayers) {
  const World w = planted_clusters(10, 32, 1, 0, Rng(3));
  std::vector<BitVector> outputs;
  for (PlayerId p = 0; p < 10; ++p) outputs.push_back(w.matrix.row(p));
  outputs[0].flip(0);
  std::vector<PlayerId> players;
  for (PlayerId p = 0; p < 10; ++p) players.push_back(p);
  const ErrorStats stats = error_stats(w.matrix, outputs, players);
  EXPECT_EQ(stats.max_error, 1u);
  EXPECT_NEAR(stats.mean_error, 0.1, 1e-9);
}

TEST(OptRadius, IdenticalClustersZeroRadius) {
  const World w = identical_clusters(32, 64, 4, Rng(4));
  const OptEstimate est = opt_radius(w.matrix, /*group_size=*/8);
  for (PlayerId p = 0; p < 32; ++p) EXPECT_EQ(est.radius[p], 0u);
  EXPECT_EQ(est.max_radius, 0u);
}

TEST(OptRadius, PlantedBoundedByDiameter) {
  const std::size_t D = 12;
  const World w = planted_clusters(64, 128, 4, D, Rng(5));
  const OptEstimate est = opt_radius(w.matrix, 16);
  for (PlayerId p = 0; p < 64; ++p) EXPECT_LE(est.radius[p], D);
}

TEST(OptRadius, GroupSizeMonotone) {
  const World w = uniform_random(64, 256, Rng(6));
  const OptEstimate small = opt_radius(w.matrix, 4);
  const OptEstimate large = opt_radius(w.matrix, 32);
  for (PlayerId p = 0; p < 64; ++p) EXPECT_LE(small.radius[p], large.radius[p]);
}

TEST(OptRadius, LowerBoundInstanceStructure) {
  const World w = lower_bound_instance(64, 8, 10, Rng(7));
  // The pivot's group of n/B=8 players is within the special-set distance.
  const OptEstimate est = opt_radius(w.matrix, 8);
  EXPECT_LE(est.radius[0], 10u);
  // Background players need ~n/2-distance groups.
  EXPECT_GT(est.radius[40], 16u);
}

TEST(WorstApproxRatio, ComputesMaxOverPlayers) {
  OptEstimate opt;
  opt.radius = {10, 0, 5};
  const std::vector<PlayerId> players{0, 1, 2};
  const std::vector<std::size_t> errors{20, 3, 5};
  // ratios: 2.0, 3.0 (denominator clamped to 1), 1.0
  EXPECT_DOUBLE_EQ(worst_approx_ratio(errors, players, opt), 3.0);
}

TEST(WorstApproxRatio, EmptyPlayersZero) {
  OptEstimate opt;
  EXPECT_DOUBLE_EQ(worst_approx_ratio({}, {}, opt), 0.0);
}

TEST(OptRadius, MeanAndMaxConsistent) {
  const World w = planted_clusters(32, 64, 2, 8, Rng(8));
  const OptEstimate est = opt_radius(w.matrix, 8);
  double mean = 0;
  std::size_t max = 0;
  for (auto r : est.radius) {
    mean += static_cast<double>(r);
    max = std::max(max, r);
  }
  mean /= 32.0;
  EXPECT_DOUBLE_EQ(est.mean_radius, mean);
  EXPECT_EQ(est.max_radius, max);
}

}  // namespace
}  // namespace colscore
