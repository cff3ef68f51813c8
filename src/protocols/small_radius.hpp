// SmallRadius (Fig. 1 of the paper; Theorem 5 / [2] Thm 4.4).
//
// Collaborative scoring when every player has >= n/B neighbours within
// Hamming distance D. Repeats Θ(log n) times: randomly partition the objects
// into s = Θ(D^e) subsets (small enough that same-cluster players are
// *identical* on most subsets), solve each subset with ZeroRadius(·,·,5B),
// keep the popular per-subset vectors, and let each player Select its own;
// concatenations across subsets become candidates, and a final Select picks
// the winner.
#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/protocols/env.hpp"
#include "src/protocols/zero_radius.hpp"

namespace colscore {

struct SmallRadiusParams {
  std::size_t budget = 8;    // B
  std::size_t diameter = 16; // D: assumed cluster diameter over `objects`
  /// Outer repetitions (Θ(log n) in the paper; 2-3 suffice in practice).
  std::size_t repeats = 2;
  /// Subset count s = clamp(ceil(subset_scale * D^subset_exponent), 1, |O|).
  /// The paper uses exponent 1.5; exponent 1 with scale 2 keeps the expected
  /// per-subset intra-cluster distance below 1/2 and is the practical preset.
  double subset_scale = 2.0;
  double subset_exponent = 1.0;
  /// Support threshold divisor for U_i: vectors output by >= n/(u_divisor*B)
  /// players (paper: 5).
  double support_divisor = 5.0;
  /// Select tournament sample size (Θ(log n)).
  std::size_t probes_per_pair = 12;
  /// Prefilter configuration for large U_i (see select_prefiltered).
  std::size_t prefilter_probes = 16;
  std::size_t max_finalists = 8;
  /// ZeroRadius configuration; its budget is overridden to 5 * budget.
  ZeroRadiusParams zr;
};

struct SmallRadiusStats {
  std::size_t subsets = 0;          // s actually used (last repeat)
  std::size_t candidate_overflow = 0;  // U_i truncations
  std::size_t settled_subsets = 0;     // forced subsets settled without a tournament
  ZeroRadiusStats zr;
};

struct SmallRadiusResult {
  /// outputs[i] = vector of players[i] over `objects` (coordinate j is
  /// objects[j]).
  std::vector<BitVector> outputs;
  SmallRadiusStats stats;
};

SmallRadiusResult small_radius(std::span<const PlayerId> players,
                               std::span<const ObjectId> objects,
                               const SmallRadiusParams& params, ProtocolEnv& env,
                               std::uint64_t phase_key);

}  // namespace colscore
