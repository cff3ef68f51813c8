// Sparse CSR backend for the neighbor graph (offsets + flat neighbor array).
//
// The dense BitMatrix adjacency costs O(n^2) bits to allocate, zero, and
// mirror regardless of how many edges exist. In the sparse regime the
// paper's sublinear-probe analysis targets (large n, small tau — expected
// degree far below n), almost all of that work is wasted: the classic
// counts -> offsets -> flat-array CSR layout stores exactly the edges and
// makes every per-player neighbor walk O(degree) instead of O(n/64).
//
// Determinism: the build parallelizes the same upper-triangle tile sweep as
// the dense backend, but each task appends its tile's edges to a private
// per-tile list; the scatter then runs sequentially in tile order. The
// (tile, p, q) generation order makes every adjacency list come out fully
// ascending with no sort and no dependence on thread schedule, so CSR and
// dense backends yield byte-identical downstream output (asserted by
// tests/test_neighbor_csr.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bitvector.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/types.hpp"

namespace colscore {

struct CsrNeighbors {
  /// offsets[p] .. offsets[p+1] index the neighbors of p in `adj`
  /// (ascending). offsets has size n + 1; offsets[n] == adj.size().
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> adj;

  std::size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const std::uint32_t> neighbors(PlayerId p) const noexcept {
    return {adj.data() + offsets[p], adj.data() + offsets[p + 1]};
  }
  std::size_t degree(PlayerId p) const noexcept {
    return offsets[p + 1] - offsets[p];
  }
  /// Binary search in the ascending neighbor list of p.
  bool has_edge(PlayerId p, PlayerId q) const noexcept;
};

/// Builds the CSR adjacency: edge iff hamming(z[p], z[q]) <= threshold.
/// Same tiled early-exit pair sweep as the dense build, run under `policy`;
/// scratch comes from the calling worker's workspace (nb_ group).
/// A non-null `alive` mask (|alive| == |z|) drops departed players from the
/// pair sweep entirely — their adjacency lists come out empty, matching the
/// streaming update contract (NeighborGraph::apply_updates).
CsrNeighbors build_csr_neighbors(
    std::span<const ConstBitRow> z, std::size_t threshold,
    const ExecPolicy& policy = ExecPolicy::process_default(),
    const BitVector* alive = nullptr);

/// Estimated edge density in [0, 1] from a deterministic sample of pairs
/// (index-hash driven — no ambient randomness, same answer on every run and
/// machine for the same input).
double estimate_edge_density(std::span<const ConstBitRow> z,
                             std::size_t threshold);

/// The auto-backend policy: CSR pays off when n is large enough that the
/// dense O(n^2)-bit adjacency dominates and the graph is actually sparse.
/// Thresholds (n >= 2048, density <= 1/16) chosen from the dense-vs-CSR A/B
/// runs recorded in ROADMAP "SIMD dispatch + CSR neighbor core".
bool csr_preferred(std::span<const ConstBitRow> z, std::size_t threshold);

}  // namespace colscore
