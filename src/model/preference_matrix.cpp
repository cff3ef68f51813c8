#include "src/model/preference_matrix.hpp"

#include <algorithm>

#include "src/common/assert.hpp"

namespace colscore {

PreferenceMatrix::PreferenceMatrix(std::size_t n_players, std::size_t n_objects)
    : n_objects_(n_objects), rows_(n_players, n_objects) {}

bool PreferenceMatrix::preference(PlayerId p, ObjectId o) const {
  CS_ASSERT(p < rows_.rows(), "preference: bad player");
  CS_ASSERT(o < n_objects_, "preference: bad object");
  return rows_.get(p, o);
}

ConstBitRow PreferenceMatrix::row(PlayerId p) const {
  CS_ASSERT(p < rows_.rows(), "row: bad player");
  return rows_.row(p);
}

BitRow PreferenceMatrix::row(PlayerId p) {
  CS_ASSERT(p < rows_.rows(), "row: bad player");
  return rows_.row(p);
}

void PreferenceMatrix::set(PlayerId p, ObjectId o, bool value) {
  CS_ASSERT(p < rows_.rows() && o < n_objects_, "set: out of range");
  rows_.set(p, o, value);
}

std::size_t PreferenceMatrix::distance(PlayerId p, PlayerId q) const {
  return row(p).hamming(row(q));
}

std::size_t PreferenceMatrix::diameter(std::span<const PlayerId> members) const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < members.size(); ++i)
    for (std::size_t j = i + 1; j < members.size(); ++j)
      best = std::max(best, distance(members[i], members[j]));
  return best;
}

}  // namespace colscore
