// Output of a protocol run: predicted vectors plus probe/diagnostic
// accounting used by the experiment harness.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/protocols/small_radius.hpp"

namespace colscore {

struct IterationInfo {
  std::size_t diameter_guess = 0;  // D of this iteration (0 = full universe)
  std::size_t sample_size = 0;
  std::size_t clusters = 0;
  std::size_t min_cluster = 0;
  std::size_t leftovers = 0;
  std::size_t orphans = 0;
  std::size_t sr_candidate_overflow = 0;
  std::size_t sr_settled_subsets = 0;
};

struct ProtocolResult {
  /// outputs[p] = predicted preference vector w(p) over all objects.
  std::vector<BitVector> outputs;

  /// Probe accounting (delta over the run, from the oracle).
  std::uint64_t total_probes = 0;
  std::uint64_t max_probes = 0;
  std::vector<std::uint64_t> probes_by_player;

  std::vector<IterationInfo> iterations;
  bool easy_case = false;
};

class ProbeOracle;

/// Every player's probe counter now: the baseline fill_probe_deltas
/// measures a run against.
std::vector<std::uint64_t> probe_snapshot(const ProbeOracle& oracle);

/// Sets the result's probe accounting (probes_by_player, total_probes,
/// max_probes) to the charges made since `before` was taken.
void fill_probe_deltas(ProtocolResult& result, const ProbeOracle& oracle,
                       const std::vector<std::uint64_t>& before);

}  // namespace colscore
