// Streaming scoring session (PR 10): a long-lived NeighborGraph + Clustering
// over an externally-owned, mutating row family.
//
// The paper's setting is static — build the graph once, peel once. A churn
// workload instead drifts preference rows, admits and retires players epoch
// by epoch. StreamSession keeps the derived state (edges, degrees,
// clustering) synchronized with those deltas at incremental cost:
//
//   * graph maintenance goes through NeighborGraph::apply_updates — O(k·n)
//     distance work per epoch instead of the O(n²) full rebuild (with the
//     documented >= n/8 fallback);
//   * re-clustering is epoch-amortized: the greedy peel re-runs only when
//     the epoch actually changed an edge (or forced a rebuild), seeded from
//     the graph's incrementally-maintained degree cache; a delta-free epoch
//     reuses the previous clustering verbatim, which is sound because
//     cluster_players is a pure function of the edge set.
//
// The session observes the caller's rows (ConstBitRow views): mutate the
// rows first (e.g. BitRow::flip_random), then describe what changed in one
// apply_epoch batch. Outputs are pinned: after any sequence of epochs the
// graph and clustering are byte-identical to a fresh build over the current
// rows + alive set (tests/test_stream.cpp fuzzes this on both backends).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/exec_policy.hpp"
#include "src/protocols/neighbor_graph.hpp"

namespace colscore {

/// What one epoch did to the session's derived state.
struct StreamEpochStats {
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  /// The graph fell back to a full (alive-masked) rebuild this epoch.
  bool rebuilt = false;
  /// The greedy peel re-ran (false = previous clustering reused verbatim).
  bool reclustered = false;
};

/// Running totals over a session's lifetime (feeds the churn workload's
/// entry metrics: epochs, edges_changed, rebuild_fraction).
struct StreamTotals {
  std::uint64_t epochs = 0;
  std::uint64_t edges_changed = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t reclusters = 0;
  std::uint64_t flips = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
};

class StreamSession {
 public:
  /// Builds the initial graph + clustering over `z` (the session keeps
  /// views, not copies: the rows must outlive the session and never
  /// reallocate — BitMatrix rows qualify). `threshold` is the edge
  /// threshold, `min_cluster` the peel floor (paper's n/B).
  StreamSession(std::span<const ConstBitRow> z, std::size_t threshold,
                std::size_t min_cluster,
                GraphBackend backend = GraphBackend::kAuto,
                const ExecPolicy& policy = ExecPolicy::serial());

  /// Applies one epoch: the caller has already mutated the flipped rows in
  /// place; `updates` lists every player whose row content or aliveness
  /// changed (at most once each). Returns what the epoch did.
  StreamEpochStats apply_epoch(
      std::span<const RowUpdate> updates,
      const ExecPolicy& policy = ExecPolicy::serial());

  const NeighborGraph& graph() const noexcept { return graph_; }
  const Clustering& clustering() const noexcept { return clustering_; }
  const StreamTotals& totals() const noexcept { return totals_; }
  std::size_t min_cluster() const noexcept { return min_cluster_; }

 private:
  std::vector<ConstBitRow> z_;
  std::size_t min_cluster_;
  NeighborGraph graph_;
  Clustering clustering_;
  StreamTotals totals_;
};

}  // namespace colscore
