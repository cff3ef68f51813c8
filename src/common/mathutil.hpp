// Tiny math helpers shared by protocol parameter derivations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace colscore {

/// Smallest l with 2^l >= n (at least 1).
inline std::size_t log2_ceil(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return std::max<std::size_t>(l, 1);
}

/// Natural log clamped below at 1.0 (protocol constants scale with ln n and
/// must stay positive for tiny test sizes).
inline double ln_clamped(std::size_t n) {
  return std::max(1.0, std::log(static_cast<double>(n)));
}

/// ceil of a positive double as size_t (>= 1), saturating at SIZE_MAX:
/// a value the cast cannot represent would be undefined behaviour.
inline std::size_t ceil_size(double x) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const double c = std::max(1.0, std::ceil(x));
  if (c >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::size_t>(c);
}

}  // namespace colscore
