// Online statistics for metrics: a Welford mean accumulator.
#pragma once

#include <cstddef>

namespace colscore {

/// Online mean accumulator (Welford's update, whose rounding the golden
/// mean_err cells pin).
class Accumulator {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace colscore
