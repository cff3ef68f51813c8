#include "src/metrics/error.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/stats.hpp"

namespace colscore {

std::vector<std::size_t> hamming_errors(const PreferenceMatrix& truth,
                                        std::span<const BitVector> outputs,
                                        std::span<const PlayerId> players,
                                        const ExecPolicy& policy) {
  std::vector<std::size_t> errors(players.size(), 0);
  policy.par_for(0, players.size(), [&](std::size_t i) {
    const PlayerId p = players[i];
    CS_ASSERT(p < outputs.size(), "hamming_errors: missing output");
    errors[i] = truth.row(p).hamming(outputs[p]);
  });
  return errors;
}

ErrorStats error_stats(const PreferenceMatrix& truth,
                       std::span<const BitVector> outputs,
                       std::span<const PlayerId> players,
                       const ExecPolicy& policy) {
  auto errors = hamming_errors(truth, outputs, players, policy);
  // Welford over the errors in ascending order: the rounding of mean_error
  // is part of every golden row.
  std::sort(errors.begin(), errors.end());
  Accumulator acc;
  for (const std::size_t e : errors) acc.add(static_cast<double>(e));
  ErrorStats stats;
  stats.max_error = errors.empty() ? 0 : errors.back();
  stats.mean_error = acc.mean();
  return stats;
}

}  // namespace colscore
