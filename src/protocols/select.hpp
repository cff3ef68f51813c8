// RSelect and Select (Fig. 1 of the paper; Theorem 3 / [2] Thm 6.1).
//
// Given candidate vectors w_1..w_k over an object subset, player p probes a
// few positions where pairs differ and eliminates the pairwise losers; with
// Θ(log n) probes per pair the surviving vector is within a constant factor
// of the best candidate's distance to v(p), using O(k² log n) probes.
//
// Select is the deterministic variant used inside SmallRadius: probing
// positions are derived from a stable key instead of the player's local
// randomness, and pairs closer than `skip_below` positions are not probed at
// all (they cannot change the O(D) guarantee, and skipping them keeps the
// probe bill inside Theorem 5's budget).
//
// Every entry point has two forms: the primary one takes
// std::span<const ConstBitRow> (zero-copy views — BitMatrix rows or
// BitVectors alike), and a convenience overload takes
// std::span<const BitVector> and wraps it in views.
#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/protocols/env.hpp"

namespace colscore {

struct SelectOutcome {
  std::size_t chosen = 0;      // index into the candidate span
  std::size_t probes = 0;      // own-probes performed by the player
  std::size_t pairs_probed = 0;
};

/// Randomized candidate selection for player `p`.
/// `objects[i]` is the global object id of coordinate i of every candidate.
/// `probes_per_pair` is the Θ(log n) sample size.
SelectOutcome rselect(PlayerId p, std::span<const ConstBitRow> candidates,
                      std::span<const ObjectId> objects, ProtocolEnv& env,
                      std::uint64_t phase_key, std::size_t probes_per_pair);
SelectOutcome rselect(PlayerId p, std::span<const BitVector> candidates,
                      std::span<const ObjectId> objects, ProtocolEnv& env,
                      std::uint64_t phase_key, std::size_t probes_per_pair);

/// Deterministic variant. `skip_below`: pairs differing in at most this many
/// positions are treated as equivalent (no probes). Pass 0 to probe all
/// differing pairs.
SelectOutcome select_deterministic(PlayerId p, std::span<const ConstBitRow> candidates,
                                   std::span<const ObjectId> objects, ProtocolEnv& env,
                                   std::uint64_t phase_key,
                                   std::size_t probes_per_pair,
                                   std::size_t skip_below);
SelectOutcome select_deterministic(PlayerId p, std::span<const BitVector> candidates,
                                   std::span<const ObjectId> objects, ProtocolEnv& env,
                                   std::uint64_t phase_key,
                                   std::size_t probes_per_pair,
                                   std::size_t skip_below);

/// Select for large candidate sets (|Ui| can reach 5B inside SmallRadius).
/// The player first probes `prefilter_probes` shared coordinates once (a
/// single batched ProbeOracle round-trip), ranks all candidates by agreement
/// on them, keeps the best `max_finalists`, and runs the deterministic
/// tournament on the finalists only. Probe cost is
/// O(prefilter_probes + max_finalists^2 * probes_per_pair) instead of
/// O(k^2 * probes_per_pair); a candidate within O(D) of the best survives the
/// prefilter whp. This is an engineering refinement, not in the paper: the
/// full tournament's k^2 pairwise probes would dominate SmallRadius's bill.
SelectOutcome select_prefiltered(PlayerId p, std::span<const ConstBitRow> candidates,
                                 std::span<const ObjectId> objects, ProtocolEnv& env,
                                 std::uint64_t phase_key, std::size_t probes_per_pair,
                                 std::size_t prefilter_probes,
                                 std::size_t max_finalists, std::size_t skip_below);
SelectOutcome select_prefiltered(PlayerId p, std::span<const BitVector> candidates,
                                 std::span<const ObjectId> objects, ProtocolEnv& env,
                                 std::uint64_t phase_key, std::size_t probes_per_pair,
                                 std::size_t prefilter_probes,
                                 std::size_t max_finalists, std::size_t skip_below);

}  // namespace colscore
