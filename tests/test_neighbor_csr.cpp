// CSR vs dense neighbor-graph backend equivalence.
//
// The two backends must be interchangeable: identical edge sets, identical
// degrees, and — because cluster_players visits neighbors in ascending id
// order on both — byte-identical clustering output on the same input. The
// auto heuristic must also be deterministic: a pure function of the input
// vectors, never of machine or schedule.

#include "src/protocols/neighbor_csr.hpp"

#include <gtest/gtest.h>

#include "src/common/thread_pool.hpp"
#include "src/model/generators.hpp"
#include "src/protocols/neighbor_graph.hpp"

namespace colscore {
namespace {

/// n players in `groups` tight clusters: members of a group differ in ~2
/// bits, distinct groups differ in ~dim/2. Mirrors the planted workload the
/// suite benches use.
std::vector<BitVector> planted_z(std::size_t n, std::size_t groups,
                                 std::size_t dim, Rng rng) {
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < groups; ++g)
    centers.push_back(random_bitvector(dim, rng));
  std::vector<BitVector> z;
  for (std::size_t i = 0; i < n; ++i) {
    BitVector v = centers[i % groups];
    v.flip(rng.below(dim));
    v.flip(rng.below(dim));
    z.push_back(std::move(v));
  }
  return z;
}

/// Zero-copy views of the rows, the form NeighborGraph takes.
std::vector<ConstBitRow> views(const std::vector<BitVector>& z) {
  return std::vector<ConstBitRow>(z.begin(), z.end());
}

void expect_same_edges(const NeighborGraph& dense, const NeighborGraph& csr) {
  ASSERT_EQ(dense.size(), csr.size());
  const std::size_t n = dense.size();
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(dense.degree(p), csr.degree(p)) << "p=" << p;
    for (PlayerId q = 0; q < n; ++q)
      EXPECT_EQ(dense.has_edge(p, q), csr.has_edge(p, q))
          << "p=" << p << " q=" << q;
  }
}

void expect_same_clustering(const Clustering& a, const Clustering& b) {
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.leftovers, b.leftovers);
  EXPECT_EQ(a.orphans, b.orphans);
}

TEST(NeighborCsr, EdgeSetMatchesDenseOnFixedSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<BitVector> z = planted_z(96, 8, 256, Rng(seed));
    const NeighborGraph dense(views(z), 40, GraphBackend::kDense);
    const NeighborGraph csr(views(z), 40, GraphBackend::kCsr);
    EXPECT_EQ(dense.backend(), GraphBackend::kDense);
    EXPECT_EQ(csr.backend(), GraphBackend::kCsr);
    expect_same_edges(dense, csr);
  }
}

TEST(NeighborCsr, AdjacencyListsAreAscending) {
  // The scatter relies on tile-order generation producing sorted rows with
  // no sort call; this is the invariant binary-search has_edge needs.
  const std::vector<BitVector> z = planted_z(150, 10, 192, Rng(7));
  const NeighborGraph csr(views(z), 36, GraphBackend::kCsr);
  for (PlayerId p = 0; p < csr.size(); ++p) {
    const std::span<const std::uint32_t> nb = csr.neighbors(p);
    for (std::size_t i = 1; i < nb.size(); ++i)
      EXPECT_LT(nb[i - 1], nb[i]) << "p=" << p;
    for (const std::uint32_t q : nb) EXPECT_NE(q, p) << "self loop";
  }
}

TEST(NeighborCsr, ClusteringIdenticalAcrossBackends) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const std::vector<BitVector> z = planted_z(120, 6, 256, Rng(seed));
    const NeighborGraph dense(views(z), 48, GraphBackend::kDense);
    const NeighborGraph csr(views(z), 48, GraphBackend::kCsr);
    expect_same_clustering(cluster_players(dense, 120 / 6),
                           cluster_players(csr, 120 / 6));
  }
}

TEST(NeighborCsr, ClusteringIdenticalWithSparseAndDenseGraphs) {
  // Both regimes around the density-heuristic boundary: a tight-threshold
  // (sparse) and a loose-threshold (dense) graph on the same vectors.
  const std::vector<BitVector> z = planted_z(128, 16, 256, Rng(9));
  for (const std::size_t tau : {8ul, 60ul, 140ul}) {
    const NeighborGraph dense(views(z), tau, GraphBackend::kDense);
    const NeighborGraph csr(views(z), tau, GraphBackend::kCsr);
    expect_same_edges(dense, csr);
    expect_same_clustering(cluster_players(dense, 8),
                           cluster_players(csr, 8));
  }
}

TEST(NeighborCsr, ClusteringIdenticalUnderThreading) {
  // The parallel tile sweep must not leak schedule into the CSR layout.
  const std::vector<BitVector> z = planted_z(200, 10, 256, Rng(5));
  const NeighborGraph serial(views(z), 48, GraphBackend::kCsr,
                             ExecPolicy::serial());
  ThreadPool pool(4);
  const NeighborGraph threaded(views(z), 48, GraphBackend::kCsr,
                               ExecPolicy::pool(pool));
  ASSERT_EQ(serial.size(), threaded.size());
  for (PlayerId p = 0; p < serial.size(); ++p) {
    const std::span<const std::uint32_t> a = serial.neighbors(p);
    const std::span<const std::uint32_t> b = threaded.neighbors(p);
    ASSERT_EQ(a.size(), b.size()) << "p=" << p;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(NeighborCsr, AutoSelectsDenseForSmallN) {
  // Below the n floor the heuristic never picks CSR, whatever the density.
  const std::vector<BitVector> z = planted_z(64, 4, 128, Rng(3));
  const NeighborGraph g(views(z), 10, GraphBackend::kAuto);
  EXPECT_EQ(g.backend(), GraphBackend::kDense);
}

// kAuto's crossover on the benchmark's two graph shapes: each backend was
// measured faster or leaner on its side (ROADMAP item 7), so these pin the
// choice rather than let a heuristic change move a workload silently.
TEST(NeighborCsr, AutoSelectsDenseForFewLargeClusters) {
  // sleeper2048's shape: n = 2048 in 8 planted clusters, edge density ~1/8.
  const std::vector<BitVector> z = planted_z(2048, 8, 512, Rng(31));
  const NeighborGraph g(views(z), 16, GraphBackend::kAuto);
  EXPECT_EQ(g.backend(), GraphBackend::kDense);
}

TEST(NeighborCsr, AutoSelectsCsrForManySmallClusters) {
  // churn4096's shape: n = 4096 in 256 clusters over |S| = 4096, tau = 96.
  const std::vector<BitVector> z = planted_z(4096, 256, 4096, Rng(32));
  const NeighborGraph g(views(z), 96, GraphBackend::kAuto);
  EXPECT_EQ(g.backend(), GraphBackend::kCsr);
}

TEST(NeighborCsr, DensityEstimateIsDeterministicAndOrdered) {
  const std::vector<BitVector> zv = planted_z(256, 16, 128, Rng(21));
  const std::vector<ConstBitRow> z = views(zv);
  const double tight = estimate_edge_density(z, 4);
  const double loose = estimate_edge_density(z, 120);
  EXPECT_EQ(tight, estimate_edge_density(z, 4));  // pure function of input
  EXPECT_LE(tight, loose);
  EXPECT_GE(tight, 0.0);
  EXPECT_LE(loose, 1.0);
}

TEST(NeighborCsr, DegenerateSizes) {
  const std::vector<BitVector> one{BitVector(64)};
  const NeighborGraph g1(views(one), 4, GraphBackend::kCsr);
  EXPECT_EQ(g1.size(), 1u);
  EXPECT_EQ(g1.degree(0), 0u);
  EXPECT_TRUE(g1.neighbors(0).empty());

  const std::vector<BitVector> none;
  const NeighborGraph g0(views(none), 4, GraphBackend::kCsr);
  EXPECT_EQ(g0.size(), 0u);
}

}  // namespace
}  // namespace colscore
