// Work sharing (Fig. 2 step 1.e; Lemmas 10, 12, 13).
//
// For each cluster and each object, Θ(log n) cluster members chosen by the
// shared randomness probe the object and post their reports; the cluster's
// prediction is the majority vote. Redundancy + honest domination inside
// each cluster is what defeats the dishonest voters (Lemma 13).
//
// §8 (heterogeneous budgets) changes only who is drawn to vote: with
// per-member weights, a member is drawn with probability proportional to its
// budget, so its expected probe load follows what it signed up for, and a
// cluster qualifies by aggregate budget (cluster_budget_ok) rather than by
// member count.
#pragma once

#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/protocols/env.hpp"

namespace colscore {

struct WorkShareParams {
  /// Votes per object (Θ(log n)).
  std::size_t votes_per_object = 8;
};

struct WorkShareStats {
  std::uint64_t reports = 0;     // total reports posted
  std::uint64_t ties = 0;        // objects decided by the tie-break coin
};

/// Runs the voting phase for one cluster over the full object universe and
/// returns the cluster's predicted preference vector. Reports go through the
/// bulletin board channel `phase_key` so they are publicly auditable.
/// `weights[i]`, if given, is the budget of members[i] (relative; a weight of
/// 0 counts as 1): each vote draws members[i] with probability proportional
/// to it. No weights, or all weights 1, draw uniformly: the same voters,
/// reports and charges.
BitVector cluster_votes(std::span<const PlayerId> members, ProtocolEnv& env,
                        std::uint64_t phase_key, const WorkShareParams& params,
                        WorkShareStats* stats = nullptr,
                        std::span<const std::size_t> weights = {});

/// §8 criterion: the cluster can cover all objects with `votes_per_object`
/// redundancy iff the aggregate budget (sum of member budgets) is at least
/// n_objects * votes_per_object.
bool cluster_budget_ok(std::span<const std::size_t> budgets, std::size_t n_objects,
                       std::size_t votes_per_object);

}  // namespace colscore
