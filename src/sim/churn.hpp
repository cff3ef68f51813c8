// Epoch-based churn/drift engine (PR 10): the dynamic-population half of the
// `churn` workload family.
//
// Each epoch, in deterministic ascending player order, one Rng stream draws
// the epoch's fate for every player — depart (alive players), drift (alive
// players that stayed: BitRow::flip_random over flip_bits positions), or
// re-arrive (departed players, row intact). The resulting batch feeds a
// StreamSession, which maintains the neighbor graph and clustering
// incrementally (src/protocols/stream.hpp) on the auto-resolved graph
// backend.
//
// Determinism: fates and flip positions come only from the caller's Rng (one
// stream, fixed draw order), and the session's maintenance is
// schedule-independent — the drifted matrix and the stats are identical for
// every thread count and backend.
#pragma once

#include <cstddef>

#include "src/common/exec_policy.hpp"
#include "src/common/rng.hpp"
#include "src/model/generators.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {

struct ChurnConfig {
  std::size_t epochs = 16;
  /// Per-epoch drift probability per alive (non-departing) player.
  double flip_rate = 0.01;
  /// Positions flipped per drifting row.
  std::size_t flip_bits = 2;
  /// Per-epoch re-arrival probability per departed player.
  double arrive = 0.25;
  /// Per-epoch departure probability per alive player.
  double depart = 0.0;
  /// Edge threshold for the streamed neighbor graph.
  std::size_t threshold = 32;
  /// Peel floor for the streamed clustering (paper's n/B).
  std::size_t min_cluster = 2;
};

/// Runs the full churn simulation over `matrix`: builds a StreamSession,
/// applies `config.epochs` epochs of drift/arrive/depart, and returns the
/// aggregate stats. The matrix is mutated in place (the drifted end state is
/// what downstream algorithms score).
ChurnStats run_churn(PreferenceMatrix& matrix, const ChurnConfig& config,
                     Rng& rng, const ExecPolicy& policy);

}  // namespace colscore
