#include "src/protocols/neighbor_graph.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "src/common/assert.hpp"

namespace colscore {

namespace {

/// Rows per tile: two tiles of z-rows should sit comfortably in L1/L2 while
/// the pair sweep runs, so the inner loop streams words instead of DRAM.
std::size_t tile_rows(std::size_t n, std::size_t row_bytes) {
  constexpr std::size_t kTileBytes = 32 * 1024;
  const std::size_t rows = kTileBytes / std::max<std::size_t>(1, row_bytes);
  return std::clamp<std::size_t>(rows, 8, std::max<std::size_t>(8, n));
}

}  // namespace

const char* backend_name(GraphBackend backend) noexcept {
  switch (backend) {
    case GraphBackend::kAuto: return "auto";
    case GraphBackend::kDense: return "dense";
    case GraphBackend::kCsr: return "csr";
  }
  return "unknown";
}

NeighborGraph::NeighborGraph(std::span<const ConstBitRow> z,
                             std::size_t threshold, GraphBackend backend,
                             const ExecPolicy& policy, const BitVector* alive) {
  build(z, threshold, backend, policy, alive);
}

NeighborGraph::NeighborGraph(const BitMatrix& z, std::size_t threshold,
                             GraphBackend backend, const ExecPolicy& policy) {
  build(z.row_views(), threshold, backend, policy, nullptr);
}

ConstBitRow NeighborGraph::row(PlayerId p) const {
  CS_ASSERT(backend_ == GraphBackend::kDense,
            "NeighborGraph::row needs the dense backend, but this graph "
            "resolved to the csr backend; walk neighbors()/has_edge() or "
            "branch on backend() like cluster_players does");
  return adj_.row(p);
}

std::span<const std::uint32_t> NeighborGraph::neighbors(PlayerId p) const {
  CS_ASSERT(backend_ == GraphBackend::kCsr,
            "NeighborGraph::neighbors needs the csr backend, but this graph "
            "resolved to the dense backend; walk row()/has_edge() or branch "
            "on backend() like cluster_players does");
  return csr_.neighbors(p);
}

void NeighborGraph::build(std::span<const ConstBitRow> z, std::size_t threshold,
                          GraphBackend backend, const ExecPolicy& policy,
                          const BitVector* alive) {
  const std::size_t n = z.size();
  CS_ASSERT(alive == nullptr || alive->size() == n,
            "NeighborGraph: alive mask size mismatch");
  n_ = n;
  threshold_ = threshold;
  alive_ = alive != nullptr ? *alive : BitVector(n, true);
  alive_count_ = alive_.popcount();
  // kAuto resolves on the full row family (the density sample ignores the
  // alive mask): the verdict stays stable across a streaming session no
  // matter how the population churns.
  if (backend == GraphBackend::kAuto)
    backend = csr_preferred(z, threshold) ? GraphBackend::kCsr
                                          : GraphBackend::kDense;
  backend_ = backend;
  rebuild_adjacency(z, policy);
}

void NeighborGraph::rebuild_adjacency(std::span<const ConstBitRow> z,
                                      const ExecPolicy& policy) {
  const std::size_t n = n_;
  const std::size_t threshold = threshold_;
  degrees_.assign(n, 0);
  if (backend_ == GraphBackend::kCsr) {
    csr_ = build_csr_neighbors(z, threshold, policy, &alive_);
    for (std::size_t p = 0; p < n; ++p)
      degrees_[p] = csr_.offsets[p + 1] - csr_.offsets[p];
    return;
  }

  adj_ = BitMatrix(n, n);
  if (n < 2) return;
  const bool masked = alive_count_ != n;
  const std::size_t dim_words = bitkernel::word_count(z[0].size());
  const std::size_t tile = tile_rows(n, dim_words * sizeof(std::uint64_t));
  const std::size_t n_tiles = (n + tile - 1) / tile;

  // Upper-triangle pass: each task owns the rows of one p-tile (writes only
  // bits q > p of those rows — race-free), scanning the q-rows tile by tile
  // so both tiles stay cache-resident across the pair sweep.
  policy.par_for(0, n_tiles, [&, threshold](std::size_t ti) {
    const std::size_t p_begin = ti * tile;
    const std::size_t p_end = std::min(n, p_begin + tile);
    for (std::size_t tj = ti; tj < n_tiles; ++tj) {
      const std::size_t q_tile_begin = tj * tile;
      const std::size_t q_tile_end = std::min(n, q_tile_begin + tile);
      for (std::size_t p = p_begin; p < p_end; ++p) {
        if (masked && !alive_.get(p)) continue;
        BitRow out = adj_.row(p);
        const ConstBitRow zp = z[p];
        for (std::size_t q = std::max(q_tile_begin, p + 1); q < q_tile_end; ++q) {
          if (masked && !alive_.get(q)) continue;
          if (!zp.hamming_exceeds(z[q], threshold)) out.set(q, true);
        }
      }
    }
  });

  // Symmetrize: mirror every upper-triangle edge. O(n^2/64) word scans plus
  // O(edges) bit sets — negligible next to the distance pass it halves.
  for (std::size_t p = 0; p < n; ++p) {
    const std::span<const std::uint64_t> words = adj_.row(p).words();
    for (std::size_t w = (p + 1) / bitkernel::kWordBits; w < words.size(); ++w) {
      std::uint64_t x = words[w];
      while (x != 0) {
        const std::size_t q =
            w * bitkernel::kWordBits + static_cast<std::size_t>(std::countr_zero(x));
        x &= x - 1;
        if (q > p) adj_.set(q, p, true);
      }
    }
  }
  for (std::size_t p = 0; p < n; ++p)
    degrees_[p] = static_cast<std::uint32_t>(adj_.row(p).popcount());
}

void NeighborGraph::neighbor_list(PlayerId p,
                                  std::vector<std::uint32_t>& out) const {
  out.clear();
  if (backend_ == GraphBackend::kCsr) {
    const std::span<const std::uint32_t> nb = csr_.neighbors(p);
    out.assign(nb.begin(), nb.end());
    return;
  }
  const std::span<const std::uint64_t> words = adj_.row(p).words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t x = words[w];
    while (x != 0) {
      out.push_back(static_cast<std::uint32_t>(
          w * bitkernel::kWordBits +
          static_cast<std::size_t>(std::countr_zero(x))));
      x &= x - 1;
    }
  }
}

GraphDelta NeighborGraph::apply_updates(std::span<const RowUpdate> updates,
                                        std::span<const ConstBitRow> z,
                                        const ExecPolicy& policy) {
  CS_ASSERT(z.size() == n_, "apply_updates: z row count mismatch");
  GraphDelta delta;
  const std::size_t k = updates.size();
  if (k == 0) return delta;

  // Pass 0 (serial): validate the batch and apply the alive transitions.
  // The batch is atomic: every distance below is evaluated against the
  // post-epoch rows and post-epoch alive set.
  if (scratch_.updated.size() != n_) scratch_.updated = BitVector(n_);
  else scratch_.updated.fill(false);
  scratch_.update_index.resize(n_);
  for (std::size_t i = 0; i < k; ++i) {
    const RowUpdate& u = updates[i];
    CS_ASSERT(u.player < n_, "apply_updates: player id out of range");
    CS_ASSERT(!scratch_.updated.get(u.player),
              "apply_updates: player appears twice in one batch");
    scratch_.updated.set(u.player, true);
    scratch_.update_index[u.player] = static_cast<std::uint32_t>(i);
    switch (u.kind) {
      case UpdateKind::kFlip:
        CS_ASSERT(alive_.get(u.player), "apply_updates: flip of a departed player");
        break;
      case UpdateKind::kArrive:
        CS_ASSERT(!alive_.get(u.player),
                  "apply_updates: arrival of a player already present");
        alive_.set(u.player, true);
        ++alive_count_;
        break;
      case UpdateKind::kDepart:
        CS_ASSERT(alive_.get(u.player),
                  "apply_updates: departure of a player not present");
        alive_.set(u.player, false);
        --alive_count_;
        break;
    }
  }

  // Rebuild fallback: past ~n/8 changed rows the per-row sweeps and list
  // splicing cost more than the tiled full build they replace (the tiled
  // sweep halves the pair work via symmetry and streams cache-resident
  // tiles). The resolved backend is kept; only the adjacency is redone.
  if (k * 8 >= n_) {
    std::size_t old_edges = 0;
    for (const std::uint32_t d : degrees_) old_edges += d;
    old_edges /= 2;
    rebuild_adjacency(z, policy);
    std::size_t new_edges = 0;
    for (const std::uint32_t d : degrees_) new_edges += d;
    new_edges /= 2;
    delta.rebuilt = true;
    delta.edges_added = new_edges > old_edges ? new_edges - old_edges : 0;
    delta.edges_removed = old_edges > new_edges ? old_edges - new_edges : 0;
    return delta;
  }

  // Phase 1 (parallel, read-only): each updated row's post-epoch neighbor
  // list, swept against the alive set with the dispatched early-exit kernel.
  // Deterministic: list i depends only on (z, alive, threshold), never on
  // the schedule; update-vs-update pairs agree by Hamming symmetry.
  if (scratch_.new_lists.size() < k) scratch_.new_lists.resize(k);
  if (scratch_.old_lists.size() < k) scratch_.old_lists.resize(k);
  policy.par_for(0, k, [&](std::size_t i) {
    std::vector<std::uint32_t>& nb = scratch_.new_lists[i];
    nb.clear();
    if (updates[i].kind == UpdateKind::kDepart) return;
    const PlayerId p = updates[i].player;
    const ConstBitRow zp = z[p];
    const std::span<const std::uint64_t> aw = alive_.words();
    for (std::size_t w = 0; w < aw.size(); ++w) {
      std::uint64_t x = aw[w];
      while (x != 0) {
        const std::size_t q =
            w * bitkernel::kWordBits + static_cast<std::size_t>(std::countr_zero(x));
        x &= x - 1;
        if (q == p) continue;
        if (!zp.hamming_exceeds(z[q], threshold_))
          nb.push_back(static_cast<std::uint32_t>(q));
      }
    }
  });

  // Phase 2 (serial): snapshot every updated row's *old* list before any
  // structural change — the mirror writes below touch other updated rows,
  // so reading lists lazily would see half-applied state.
  for (std::size_t i = 0; i < k; ++i)
    neighbor_list(updates[i].player, scratch_.old_lists[i]);

  // Phase 3 (serial): per-update sorted diffs drive the degree cache, the
  // edge-churn counters, and (per backend) the structural splice. A pair
  // with both endpoints updated shows up in both diffs; it is counted once
  // (from the lower id) and applied idempotently.
  scratch_.csr_adds.clear();
  scratch_.csr_dels.clear();
  const bool dense = backend_ == GraphBackend::kDense;
  for (std::size_t i = 0; i < k; ++i) {
    const PlayerId p = updates[i].player;
    const std::vector<std::uint32_t>& olds = scratch_.old_lists[i];
    const std::vector<std::uint32_t>& news = scratch_.new_lists[i];
    scratch_.added.clear();
    scratch_.removed.clear();
    std::set_difference(news.begin(), news.end(), olds.begin(), olds.end(),
                        std::back_inserter(scratch_.added));
    std::set_difference(olds.begin(), olds.end(), news.begin(), news.end(),
                        std::back_inserter(scratch_.removed));
    for (const std::uint32_t q : scratch_.removed) {
      if (dense) {
        adj_.set(p, q, false);
        adj_.set(q, p, false);
      }
      if (!scratch_.updated.get(q)) {
        --degrees_[q];
        ++delta.edges_removed;
        if (!dense) scratch_.csr_dels.emplace_back(q, static_cast<std::uint32_t>(p));
      } else if (q > p) {
        ++delta.edges_removed;
      }
    }
    for (const std::uint32_t q : scratch_.added) {
      if (dense) {
        adj_.set(p, q, true);
        adj_.set(q, p, true);
      }
      if (!scratch_.updated.get(q)) {
        ++degrees_[q];
        ++delta.edges_added;
        if (!dense) scratch_.csr_adds.emplace_back(q, static_cast<std::uint32_t>(p));
      } else if (q > p) {
        ++delta.edges_added;
      }
    }
    degrees_[p] = static_cast<std::uint32_t>(news.size());
  }

  if (dense) return delta;

  // Phase 4 (CSR): delta-aware counts -> offsets -> flat rebuild. Updated
  // rows take their fresh lists verbatim; rows with spillover deltas merge
  // their old list against the sorted add/del streams; untouched rows copy
  // their old range unchanged. O(n + total edges) with no re-sorting — the
  // inputs are already ascending.
  std::sort(scratch_.csr_adds.begin(), scratch_.csr_adds.end());
  std::sort(scratch_.csr_dels.begin(), scratch_.csr_dels.end());
  std::vector<std::uint32_t>& offsets = scratch_.csr_offsets;
  std::vector<std::uint32_t>& adj = scratch_.csr_adj;
  std::size_t total = 0;
  for (std::size_t p = 0; p < n_; ++p) total += degrees_[p];
  CS_ASSERT(total <= static_cast<std::size_t>(UINT32_MAX),
            "csr: adjacency exceeds uint32 index space");
  offsets.assign(n_ + 1, 0);
  for (std::size_t p = 0; p < n_; ++p)
    offsets[p + 1] = offsets[p] + degrees_[p];
  adj.resize(total);
  std::size_t ai = 0;  // cursor into csr_adds
  std::size_t di = 0;  // cursor into csr_dels
  for (std::size_t p = 0; p < n_; ++p) {
    std::uint32_t* out = adj.data() + offsets[p];
    if (scratch_.updated.get(p)) {
      const std::vector<std::uint32_t>& news =
          scratch_.new_lists[scratch_.update_index[p]];
      std::copy(news.begin(), news.end(), out);
      // Spillover streams never name updated rows; no cursor advance here.
      continue;
    }
    const std::span<const std::uint32_t> olds = csr_.neighbors(p);
    const bool has_adds = ai < scratch_.csr_adds.size() &&
                          scratch_.csr_adds[ai].first == p;
    const bool has_dels = di < scratch_.csr_dels.size() &&
                          scratch_.csr_dels[di].first == p;
    if (!has_adds && !has_dels) {
      std::copy(olds.begin(), olds.end(), out);
      continue;
    }
    std::size_t oi = 0;
    while (oi < olds.size() ||
           (ai < scratch_.csr_adds.size() && scratch_.csr_adds[ai].first == p)) {
      const bool take_add =
          ai < scratch_.csr_adds.size() && scratch_.csr_adds[ai].first == p &&
          (oi == olds.size() || scratch_.csr_adds[ai].second < olds[oi]);
      if (take_add) {
        *out++ = scratch_.csr_adds[ai++].second;
        continue;
      }
      const std::uint32_t q = olds[oi++];
      if (di < scratch_.csr_dels.size() && scratch_.csr_dels[di].first == p &&
          scratch_.csr_dels[di].second == q) {
        ++di;
        continue;
      }
      *out++ = q;
    }
    CS_ASSERT(out == adj.data() + offsets[p + 1],
              "csr splice: merged row length disagrees with its degree");
  }
  csr_.offsets.swap(offsets);
  csr_.adj.swap(adj);
  return delta;
}

std::size_t Clustering::min_cluster_size() const {
  if (clusters.empty()) return 0;
  std::size_t best = clusters.front().size();
  for (const auto& c : clusters) best = std::min(best, c.size());
  return best;
}

std::size_t Clustering::max_cluster_size() const {
  std::size_t best = 0;
  for (const auto& c : clusters) best = std::max(best, c.size());
  return best;
}

Clustering cluster_players(const NeighborGraph& graph, std::size_t min_cluster) {
  const std::size_t n = graph.size();
  CS_ASSERT(min_cluster >= 1, "cluster_players: min_cluster >= 1");
  const bool dense = graph.backend() == GraphBackend::kDense;
  Clustering out;
  out.cluster_of.assign(n, Clustering::kNoClusterAssigned);

  BitVector alive(n, true);
  // deg[p] = |row(p) & alive|, maintained incrementally as members are
  // absorbed (the previous formulation rescanned an O(n/64)-word popcount —
  // and allocated a temp vector — per candidate per round).
  std::vector<std::size_t> deg(n);
  for (PlayerId p = 0; p < n; ++p) deg[p] = graph.degree(p);

  /// Set bits of (row & alive), ascending. The dense walk ANDs adjacency
  /// words against the alive words; the CSR walk filters the (already
  /// ascending) neighbor list — same ids in the same order either way.
  const auto for_alive_neighbors = [&](PlayerId p, auto&& fn) {
    if (dense) {
      const std::span<const std::uint64_t> rw = graph.row(p).words();
      const std::span<const std::uint64_t> aw = alive.words();
      for (std::size_t w = 0; w < rw.size(); ++w) {
        std::uint64_t x = rw[w] & aw[w];
        while (x != 0) {
          fn(static_cast<PlayerId>(w * bitkernel::kWordBits +
                                   static_cast<std::size_t>(std::countr_zero(x))));
          x &= x - 1;
        }
      }
    } else {
      for (const std::uint32_t q : graph.neighbors(p))
        if (alive.get(q)) fn(static_cast<PlayerId>(q));
    }
  };

  // Peeling pass: pick the max-alive-degree player with degree >=
  // min_cluster - 1, absorb its alive neighbourhood.
  for (;;) {
    PlayerId best = kInvalidPlayer;
    std::size_t best_deg = 0;
    for (PlayerId p = 0; p < n; ++p) {
      if (!alive.get(p)) continue;
      if (deg[p] + 1 >= min_cluster && (best == kInvalidPlayer || deg[p] > best_deg)) {
        best = p;
        best_deg = deg[p];
      }
    }
    if (best == kInvalidPlayer) break;

    const auto cluster_id = static_cast<std::uint32_t>(out.clusters.size());
    std::vector<PlayerId> members;
    members.push_back(best);
    for_alive_neighbors(best, [&](PlayerId q) {
      if (q != best) members.push_back(q);
    });
    for (PlayerId q : members) {
      alive.set(q, false);
      out.cluster_of[q] = cluster_id;
    }
    // Every surviving neighbour of an absorbed member loses one alive-degree
    // per absorbed member it was adjacent to (edge symmetry makes this the
    // exact delta of |row(q) & alive|).
    for (PlayerId m : members)
      for_alive_neighbors(m, [&](PlayerId q) { --deg[q]; });
    out.clusters.push_back(std::move(members));
  }

  /// First neighbour of p (scanning ascending) that already has a cluster,
  /// or kNoClusterAssigned.
  const auto first_assigned_neighbor = [&](PlayerId p) -> std::uint32_t {
    if (dense) {
      const std::span<const std::uint64_t> rw = graph.row(p).words();
      for (std::size_t w = 0; w < rw.size(); ++w) {
        std::uint64_t x = rw[w];
        while (x != 0) {
          const auto q = static_cast<PlayerId>(
              w * bitkernel::kWordBits + static_cast<std::size_t>(std::countr_zero(x)));
          x &= x - 1;
          if (out.cluster_of[q] != Clustering::kNoClusterAssigned)
            return out.cluster_of[q];
        }
      }
    } else {
      for (const std::uint32_t q : graph.neighbors(p))
        if (out.cluster_of[q] != Clustering::kNoClusterAssigned)
          return out.cluster_of[q];
    }
    return Clustering::kNoClusterAssigned;
  };

  // Leftover pass: attach each survivor to the cluster of any removed
  // neighbour (the paper's V'_j rule).
  std::uint32_t orphan_pool = Clustering::kNoClusterAssigned;
  for (PlayerId p = 0; p < n; ++p) {
    if (!alive.get(p)) continue;
    std::uint32_t target = first_assigned_neighbor(p);
    if (target == Clustering::kNoClusterAssigned) {
      // Orphan: the diameter guess was wrong for this player (it has no
      // n/B-sized D-neighbourhood — e.g. the random background players of
      // the Claim 2 instance). Orphans pool into their own residual cluster
      // rather than joining a real one: attaching them to the nearest seed
      // would pollute that cluster's votes with uncorrelated preferences.
      ++out.orphans;
      if (orphan_pool == Clustering::kNoClusterAssigned) {
        orphan_pool = static_cast<std::uint32_t>(out.clusters.size());
        out.clusters.push_back({});
      }
      target = orphan_pool;
    } else {
      ++out.leftovers;
    }
    alive.set(p, false);
    out.cluster_of[p] = target;
    out.clusters[target].push_back(p);
  }
  return out;
}

}  // namespace colscore
