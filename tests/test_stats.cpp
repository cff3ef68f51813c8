#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace colscore {
namespace {

TEST(Accumulator, MatchesBatch) {
  Accumulator acc;
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : v) acc.add(x);
  EXPECT_EQ(acc.count(), v.size());
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(Accumulator, VarianceOfFewPoints) {
  Accumulator acc;
  EXPECT_EQ(acc.variance(), 0.0);
  acc.add(5);
  EXPECT_EQ(acc.variance(), 0.0);
}

}  // namespace
}  // namespace colscore
