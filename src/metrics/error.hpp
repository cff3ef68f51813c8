// Error accounting: Hamming distance between predicted and true preference
// vectors, reported over honest players only (§3: the rate of error is the
// maximum such distance; dishonest players' outputs are meaningless).
#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/common/exec_policy.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {

/// errors[i] = |w(players[i]) - v(players[i])|.
std::vector<std::size_t> hamming_errors(
    const PreferenceMatrix& truth, std::span<const BitVector> outputs,
    std::span<const PlayerId> players,
    const ExecPolicy& policy = ExecPolicy::serial());

struct ErrorStats {
  std::size_t max_error = 0;
  double mean_error = 0.0;
};

ErrorStats error_stats(
    const PreferenceMatrix& truth, std::span<const BitVector> outputs,
    std::span<const PlayerId> players,
    const ExecPolicy& policy = ExecPolicy::serial());

}  // namespace colscore
