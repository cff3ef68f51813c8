// Online statistics for metrics: a Welford mean/variance accumulator.
#pragma once

#include <cstddef>

namespace colscore {

/// Online mean/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const noexcept;  // sample variance, 0 if n < 2
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace colscore
