#include "src/common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace colscore {
namespace {

TEST(Summary, EmptyInput) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, SingleValue) {
  const std::vector<double> v{3.5};
  const Summary s = summarize(std::span<const double>(v));
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 3.5);
  EXPECT_EQ(s.max, 3.5);
  EXPECT_EQ(s.mean, 3.5);
  EXPECT_EQ(s.p50, 3.5);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summary, KnownValues) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(std::span<const double>(v));
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Summary, SizeTOverload) {
  const std::vector<std::size_t> v{10, 20, 30};
  const Summary s = summarize(std::span<const std::size_t>(v));
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(Quantile, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, ClampsOutOfRangeQ) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 3.0);
}

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

TEST(LogLogSlope, RecoversPowerLaw) {
  // y = 3 x^2  ->  slope 2.
  std::vector<double> x{1, 2, 4, 8, 16};
  std::vector<double> y;
  for (double xi : x) y.push_back(3 * xi * xi);
  EXPECT_NEAR(loglog_slope(x, y), 2.0, 1e-9);
}

TEST(LogLogSlope, SkipsNonPositive) {
  std::vector<double> x{0, 1, 2, 4};
  std::vector<double> y{5, 1, 2, 4};
  EXPECT_NEAR(loglog_slope(x, y), 1.0, 1e-9);
}

TEST(LogLogSlope, DegenerateReturnsZero) {
  std::vector<double> x{2, 2, 2};
  std::vector<double> y{1, 2, 3};
  EXPECT_EQ(loglog_slope(x, y), 0.0);
  EXPECT_EQ(loglog_slope({}, {}), 0.0);
}

TEST(BinomialTail, Monotone) {
  EXPECT_EQ(binomial_tail_bound(0, 0.1), 1.0);
  EXPECT_GT(binomial_tail_bound(10, 0.1), binomial_tail_bound(100, 0.1));
  EXPECT_GT(binomial_tail_bound(100, 0.1), binomial_tail_bound(100, 0.3));
  EXPECT_LE(binomial_tail_bound(1000, 0.2), 1e-30);
}

}  // namespace
}  // namespace colscore
