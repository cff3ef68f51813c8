#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace colscore {
namespace {

TEST(Accumulator, MatchesBatch) {
  Accumulator acc;
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  for (double x : v) acc.add(x);
  EXPECT_EQ(acc.count(), v.size());
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

}  // namespace
}  // namespace colscore
