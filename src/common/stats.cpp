#include "src/common/stats.hpp"

namespace colscore {

void Accumulator::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

}  // namespace colscore
