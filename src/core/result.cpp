#include "src/core/result.hpp"

#include <algorithm>

#include "src/board/probe_oracle.hpp"

namespace colscore {

std::vector<std::uint64_t> probe_snapshot(const ProbeOracle& oracle) {
  std::vector<std::uint64_t> counts(oracle.n_players());
  for (PlayerId p = 0; p < counts.size(); ++p) counts[p] = oracle.probes_by(p);
  return counts;
}

void fill_probe_deltas(ProtocolResult& result, const ProbeOracle& oracle,
                       const std::vector<std::uint64_t>& before) {
  result.probes_by_player.assign(before.size(), 0);
  result.total_probes = 0;
  result.max_probes = 0;
  for (PlayerId p = 0; p < before.size(); ++p) {
    const std::uint64_t delta = oracle.probes_by(p) - before[p];
    result.probes_by_player[p] = delta;
    result.total_probes += delta;
    result.max_probes = std::max(result.max_probes, delta);
  }
}

}  // namespace colscore
