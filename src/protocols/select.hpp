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
// A tournament splits into a plan and a play. The plan (SelectPlan) holds
// what depends only on the candidate set; the play draws, probes and
// eliminates for one player. SmallRadius runs Select for every player over
// the same popular set U_i, so it builds one plan per subset and plays it
// for each player (workers share the plan read-only): select_prefiltered
// takes a plan, while rselect and select_deterministic build one per call
// and play it once. A plan of two candidates one coordinate apart is
// forced: every play probes that coordinate and keeps the candidate that
// agrees with it, so select_forced settles it in closed form with no
// tournament. Candidates are passed as std::span<const ConstBitRow> —
// zero-copy views of BitMatrix rows or BitVectors alike.
#pragma once

#include <bit>
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

/// A tournament's phase key, given outright or as mix_keys(base, salt)
/// mixed on first use. Draws are made only where they can change a pair's
/// outcome or the player's bill: a pair whose candidates differ in one
/// coordinate draws that coordinate under every stream, and a small play
/// skips the draws of a pair its player's bits decide once the player has
/// read the pair's whole difference. So many small tournaments never need
/// their key; SmallRadius passes its per-player key in the lazy form.
class SelectKey {
 public:
  /*implicit*/ SelectKey(std::uint64_t key) noexcept : key_(key) {}
  SelectKey(std::uint64_t base, std::uint64_t salt) noexcept
      : key_(base), salt_(salt), mixed_(false) {}

  std::uint64_t get() noexcept {
    if (!mixed_) {
      key_ = mix_keys(key_, salt_);
      mixed_ = true;
    }
    return key_;
  }

 private:
  std::uint64_t key_;
  std::uint64_t salt_ = 0;
  bool mixed_ = true;
};

/// The player-independent half of a tournament over one candidate set.
/// Candidate sets of at most kSmallK candidates over at most 64 objects (the
/// common SmallRadius case) get their candidate words, content hashes, and
/// every pair's XOR word and difference count computed here, once; larger
/// sets keep only the views and run the general workspace tournament. The
/// plan views `candidates` and `objects`, which must outlive it. Playing a
/// plan only reads it, so one plan may be played from many threads at once.
class SelectPlan {
 public:
  static constexpr std::size_t kSmallK = 16;

  SelectPlan(std::span<const ConstBitRow> candidates, std::span<const ObjectId> objects);
  SelectPlan(const SelectPlan&) = delete;
  SelectPlan& operator=(const SelectPlan&) = delete;

  std::size_t size() const noexcept { return candidates_.size(); }

  static constexpr std::size_t kNotForced = ~std::size_t{0};

  /// The decision coordinate of a forced plan (two candidates differing in
  /// exactly one coordinate), or kNotForced. This is the only fully forced
  /// shape among distinct candidates: three distinct vectors cannot be
  /// pairwise one coordinate apart.
  std::size_t forced_coordinate() const noexcept {
    return small_ && size() == 2 && pair_count_[0] == 1
               ? static_cast<std::size_t>(std::countr_zero(pair_diff_[0]))
               : kNotForced;
  }

 private:
  friend struct SelectTournament;  // the play side (select.cpp)
  friend SelectOutcome select_forced(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                     std::size_t probes_per_pair);
  static constexpr std::size_t kSmallPairs = kSmallK * (kSmallK - 1) / 2;

  /// Index of pair (i, j), i < j, in the triangular pair table.
  static std::size_t pair_index(std::size_t i, std::size_t j) noexcept {
    return i * (2 * kSmallK - i - 1) / 2 + (j - i - 1);
  }

  std::span<const ConstBitRow> candidates_;
  std::span<const ObjectId> objects_;
  bool small_ = false;
  // Small plans only; entries past size() are unset.
  std::uint64_t words_[kSmallK];
  std::uint64_t hashes_[kSmallK];
  std::uint64_t pair_diff_[kSmallPairs];
  std::uint8_t pair_count_[kSmallPairs];
};

/// Select on a forced plan (forced_coordinate() != kNotForced) in closed
/// form, with the tournament's outcome and charge: the player learns its own
/// bit on the decision coordinate with one one-object probe and chooses the
/// candidate that agrees with it. With probes_per_pair == 0 nothing is
/// probed and candidate 0 wins. No key, stream or tournament is involved,
/// so the result does not depend on the phase key.
SelectOutcome select_forced(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                            std::size_t probes_per_pair);

/// Randomized candidate selection for player `p`.
/// `objects[i]` is the global object id of coordinate i of every candidate.
/// `probes_per_pair` is the Θ(log n) sample size.
SelectOutcome rselect(PlayerId p, std::span<const ConstBitRow> candidates,
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

/// Select for large candidate sets (|Ui| can reach 5B inside SmallRadius).
/// The player first probes `prefilter_probes` coordinates drawn from the
/// phase key once (a single batched ProbeOracle round-trip), ranks all
/// candidates by agreement on them, keeps the best `max_finalists`, and runs
/// the deterministic tournament on the finalists only. The coordinates are
/// as shared as the key: SmallRadius passes a per-player key, so each player
/// probes its own set. Probe cost is
/// O(prefilter_probes + max_finalists^2 * probes_per_pair) instead of
/// O(k^2 * probes_per_pair); a candidate within O(D) of the best survives the
/// prefilter whp. This is an engineering refinement, not in the paper: the
/// full tournament's k^2 pairwise probes would dominate SmallRadius's bill.
/// Sets of at most `max_finalists` candidates skip the prefilter and run
/// select_deterministic's tournament.
SelectOutcome select_prefiltered(PlayerId p, const SelectPlan& plan, ProtocolEnv& env,
                                 SelectKey phase_key, std::size_t probes_per_pair,
                                 std::size_t prefilter_probes,
                                 std::size_t max_finalists, std::size_t skip_below);

}  // namespace colscore
