// Empirical estimate of the Definition 1 optimum.
//
// For player p, D_opt(p) = min diameter over sets of >= n/B players
// containing p. Computing it exactly is infeasible, but the radius
//   r(p) = distance from p to its (n/B - 1)-th nearest player
// brackets it:  r(p) <= D_opt(p) <= 2 r(p)   (triangle inequality in the
// Hamming metric). Experiments report error / max(1, r(p)) ratios against
// this bracket.
#pragma once

#include <vector>

#include "src/common/exec_policy.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {

struct OptEstimate {
  /// radius[p] = (group_size - 1)-th smallest distance from p to others.
  std::vector<std::size_t> radius;
  std::size_t max_radius = 0;
  double mean_radius = 0.0;
};

/// O(n^2) distance computation, parallelized under `policy`. `group_size` = n/B.
OptEstimate opt_radius(const PreferenceMatrix& truth, std::size_t group_size,
                       const ExecPolicy& policy = ExecPolicy::serial());

/// Max over players of error[p] / max(1, radius[p]); the constant-factor
/// optimality claim (Theorem 14) predicts this stays bounded.
double worst_approx_ratio(const std::vector<std::size_t>& errors,
                          const std::vector<PlayerId>& players,
                          const OptEstimate& opt);

}  // namespace colscore
