// ZeroRadius (Fig. 1 of the paper; Theorem 4 / [4], [2] Thm 3.1).
//
// Collaborative scoring when every player has >= n/B' exact twins. The
// player/object universes are halved recursively; each half solves itself,
// then each player adopts its opposite-half vector from the published
// outputs by support voting plus an elimination-probing loop.
//
// Deviations from the paper's pseudocode:
//   * The elimination loop is capped (4 * B' * log2(n_total) + 4 probes per
//     player per merge step); on cap overflow or full elimination the
//     player falls back to the highest-support candidate patched with its
//     own probed bits. The precondition only holds approximately when
//     SmallRadius invokes us on noisy sub-universes, and the caller's
//     Select step absorbs the O(D) residual.
//   * Degenerate random partitions are re-drawn (bounded retries): a
//     halving with an empty side would recurse on the same universe.
#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/protocols/env.hpp"

namespace colscore {

struct ZeroRadiusParams {
  /// B': at least |players|/budget twins assumed per player.
  std::size_t budget = 8;
  /// Base case when min(|P|, |O|) <= base_factor * budget * log2(n_total).
  /// The constant matters: recursion is only sound while every player's twin
  /// set keeps Ω(log n) members on both sides of the random halving, i.e.
  /// while |P|/budget stays well above log2 n. Below that, support voting
  /// loses whole clusters with constant probability (the paper's Θ(·) hides
  /// exactly this constant).
  double base_factor = 4.0;
  /// After adopting a vector, the player verifies this many uniformly chosen
  /// coordinates and patches mismatches (0 derives 2 * log2(n_total)).
  /// Repairs the rare deep-recursion case where a cluster lost all its
  /// members on one side of the partition and the adopted vector is close
  /// but not exact.
  std::size_t verify_probes = 0;
};

struct ZeroRadiusStats {
  std::size_t base_case_players = 0;  // players that hit a base case (any level)
  std::size_t fallbacks = 0;          // elimination loops that needed the fallback
  std::size_t empty_support = 0;      // merges where no vector met the threshold
  std::size_t repairs = 0;            // verification probes that found mismatches
  std::size_t max_depth = 0;

  void merge(const ZeroRadiusStats& other);
};

struct ZeroRadiusResult {
  /// outputs[i] = computed preference vector of players[i] over `objects`
  /// (coordinate j corresponds to objects[j]).
  std::vector<BitVector> outputs;
  ZeroRadiusStats stats;
};

ZeroRadiusResult zero_radius(std::span<const PlayerId> players,
                             std::span<const ObjectId> objects,
                             const ZeroRadiusParams& params, ProtocolEnv& env,
                             std::uint64_t phase_key);

}  // namespace colscore
