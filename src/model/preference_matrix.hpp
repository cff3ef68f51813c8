// Ground-truth preference matrix: one binary vector per player (§2).
//
// Rows live in a contiguous BitMatrix (one allocation, cache-line-aligned
// rows) and are exposed as zero-copy BitRow/ConstBitRow views; distance() and
// diameter() run the views' word-parallel kernels.
#pragma once

#include <span>

#include "src/common/bitmatrix.hpp"
#include "src/common/bitvector.hpp"
#include "src/common/types.hpp"

namespace colscore {

class PreferenceMatrix {
 public:
  PreferenceMatrix() = default;
  PreferenceMatrix(std::size_t n_players, std::size_t n_objects);

  bool preference(PlayerId p, ObjectId o) const;
  std::size_t n_players() const { return rows_.rows(); }
  std::size_t n_objects() const { return n_objects_; }

  /// The packed rows: one flat cache-line-strided allocation, so the probe
  /// oracle reads truth bits with inline word math.
  const BitMatrix& rows() const { return rows_; }

  ConstBitRow row(PlayerId p) const;
  BitRow row(PlayerId p);
  void set(PlayerId p, ObjectId o, bool value);

  /// Hamming distance between two players' true vectors.
  std::size_t distance(PlayerId p, PlayerId q) const;

  /// Max pairwise distance within `members`.
  std::size_t diameter(std::span<const PlayerId> members) const;

 private:
  std::size_t n_objects_ = 0;
  BitMatrix rows_;
};

}  // namespace colscore
