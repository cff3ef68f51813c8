#include "src/protocols/neighbor_graph.hpp"

#include <gtest/gtest.h>

#include "src/common/bitmatrix.hpp"
#include "src/common/mathutil.hpp"
#include "src/core/params.hpp"
#include "src/model/generators.hpp"

namespace colscore {
namespace {

/// z-vectors with k groups of identical vectors, groups pairwise far apart.
std::vector<BitVector> grouped_vectors(std::size_t n, std::size_t groups,
                                       std::size_t dim, Rng rng) {
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < groups; ++g)
    centers.push_back(random_bitvector(dim, rng));
  std::vector<BitVector> z;
  for (std::size_t i = 0; i < n; ++i) z.push_back(centers[i % groups]);
  return z;
}

/// Zero-copy views of the rows, the form NeighborGraph takes.
std::vector<ConstBitRow> views(const std::vector<BitVector>& z) {
  return std::vector<ConstBitRow>(z.begin(), z.end());
}

TEST(NeighborGraph, EdgesRespectThreshold) {
  std::vector<BitVector> z;
  z.push_back(BitVector(32));
  BitVector close(32);
  close.set(0, true);
  close.set(1, true);
  z.push_back(close);  // distance 2
  BitVector far(32, true);
  z.push_back(far);  // distance 32 / 30
  const NeighborGraph g(views(z), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));  // no self loops
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(NeighborGraph, SampledDistanceSeparatesCloseFromFarPairs) {
  // Lemma 6 at the practical constants, with the sample and the edge
  // threshold calculate_preferences uses at diameter guess D: each object
  // joins S with probability min(1, sample_rate_c ln n / D), and a pair
  // keeps its edge while it differs on at most
  // min(graph_tau_c ln n, graph_tau_sample_frac |S|) objects of S. Over
  // 8192 objects the |S| cap stays above graph_tau_c ln n, doubled too.
  // Pairs c*D apart: close ones (c = 1) must keep their edge and far ones
  // (c = 6, 10) lose it. At c = 3 the threshold equals the mean
  // (3 * sample_rate_c = graph_tau_c), and 47% of pairs land on the wrong
  // side.
  const Params params = Params::practical(8);
  const std::size_t n = 4096, D = 256, n_objects = 8192, pairs = 200;
  const double ln_n = ln_clamped(n);
  const double rate = std::min(1.0, params.sample_rate_c * ln_n / static_cast<double>(D));
  for (const std::size_t c : {1, 6, 10}) {
    Rng rng(c * 1237);
    std::vector<ObjectId> sample;
    for (ObjectId o = 0; o < n_objects; ++o)
      if (rng.chance(rate)) sample.push_back(o);
    const auto tau = static_cast<std::size_t>(
        std::min(params.graph_tau_c * ln_n,
                 params.graph_tau_sample_frac * static_cast<double>(sample.size())));
    // Row 2i is all zeros; row 2i+1 flips c*D distinct random objects.
    BitMatrix z(2 * pairs, sample.size());
    for (std::size_t i = 0; i < pairs; ++i) {
      BitVector flipped(n_objects);
      while (flipped.popcount() < c * D) flipped.set(rng.below(n_objects), true);
      for (std::size_t j = 0; j < sample.size(); ++j)
        z.set(2 * i + 1, j, flipped.get(sample[j]));
    }
    const NeighborGraph g(z, tau);
    for (std::size_t i = 0; i < pairs; ++i)
      EXPECT_EQ(g.has_edge(2 * i, 2 * i + 1), c == 1) << "c=" << c << " pair " << i;
  }
}

TEST(NeighborGraph, SymmetricByConstruction) {
  Rng rng(1);
  std::vector<BitVector> z;
  for (int i = 0; i < 20; ++i) z.push_back(random_bitvector(64, rng));
  const NeighborGraph g(views(z), 28);
  for (PlayerId p = 0; p < 20; ++p)
    for (PlayerId q = 0; q < 20; ++q)
      EXPECT_EQ(g.has_edge(p, q), g.has_edge(q, p));
}

TEST(NeighborGraph, BitMatrixAndBitVectorFamiliesAgree) {
  // The BitMatrix overload must produce the same edge set as row views of
  // the same vectors (same early-exit threshold semantics).
  Rng rng(9);
  const std::size_t n = 33, dim = 200;
  std::vector<BitVector> zv;
  BitMatrix zm(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    zv.push_back(random_bitvector(dim, rng));
    zm.row(i) = zv.back();
  }
  for (std::size_t tau : {0UL, 90UL, 100UL, 110UL, dim}) {
    const NeighborGraph a(views(zv), tau);
    const NeighborGraph b(zm, tau);
    for (PlayerId p = 0; p < n; ++p) {
      for (PlayerId q = 0; q < n; ++q) {
        EXPECT_EQ(a.has_edge(p, q), b.has_edge(p, q));
        const bool expect = p != q && zv[p].hamming(zv[q]) <= tau;
        EXPECT_EQ(a.has_edge(p, q), expect) << p << "," << q << " tau=" << tau;
      }
    }
  }
}

TEST(ClusterPlayers, RecoversCleanGroups) {
  Rng rng(2);
  const auto z = grouped_vectors(60, 3, 128, rng);
  const NeighborGraph g(views(z), 10);
  const Clustering c = cluster_players(g, /*min_cluster=*/20);
  EXPECT_EQ(c.clusters.size(), 3u);
  EXPECT_EQ(c.min_cluster_size(), 20u);
  EXPECT_EQ(c.max_cluster_size(), 20u);
  EXPECT_EQ(c.orphans, 0u);
  // Same-group players share clusters.
  for (PlayerId p = 0; p < 60; ++p)
    EXPECT_EQ(c.cluster_of[p], c.cluster_of[p % 3]);
}

TEST(ClusterPlayers, EveryPlayerAssignedExactlyOnce) {
  Rng rng(3);
  const auto z = grouped_vectors(45, 3, 64, rng);
  const NeighborGraph g(views(z), 5);
  const Clustering c = cluster_players(g, 15);
  std::vector<int> seen(45, 0);
  for (const auto& cluster : c.clusters)
    for (PlayerId p : cluster) ++seen[p];
  for (int count : seen) EXPECT_EQ(count, 1);
  for (PlayerId p = 0; p < 45; ++p)
    EXPECT_NE(c.cluster_of[p], Clustering::kNoClusterAssigned);
}

TEST(ClusterPlayers, LeftoverAttachesToNeighborCluster) {
  // 21 players in one tight group; min_cluster 20 peels one cluster of 21?
  // No: the seed absorbs its 20 neighbours -> everyone lands in cluster 0.
  // Make one extra player adjacent to only a few group members.
  Rng rng(4);
  std::vector<BitVector> z = grouped_vectors(20, 1, 64, rng);
  BitVector nearby = z[0];
  nearby.flip(0);
  nearby.flip(1);
  nearby.flip(2);
  z.push_back(nearby);  // distance 3 from the group
  const NeighborGraph g(views(z), 2);  // the extra player has NO edges at tau=2
  const Clustering c = cluster_players(g, 20);
  // The orphan pools into its own residual cluster — it must NOT pollute the
  // real cluster's votes.
  EXPECT_EQ(c.clusters.size(), 2u);
  EXPECT_EQ(c.orphans, 1u);
  EXPECT_EQ(c.cluster_of[20], 1u);
  EXPECT_EQ(c.clusters[1].size(), 1u);
}

TEST(ClusterPlayers, LeftoverViaRemovedNeighbor) {
  // A path-shaped fringe: player X is adjacent to group members but the
  // group gets peeled first, leaving X to the leftover (V'_j) rule.
  Rng rng(5);
  std::vector<BitVector> z = grouped_vectors(20, 1, 64, rng);
  BitVector fringe = z[0];
  fringe.flip(0);  // distance 1: adjacent at tau=1
  z.push_back(fringe);
  const NeighborGraph g(views(z), 1);
  const Clustering c = cluster_players(g, 21);
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.cluster_of[20], 0u);
  EXPECT_EQ(c.clusters[0].size(), 21u);
  EXPECT_EQ(c.orphans, 0u);
}

TEST(ClusterPlayers, NoClustersWhenGraphTooSparse) {
  Rng rng(6);
  std::vector<BitVector> z;
  for (int i = 0; i < 10; ++i) z.push_back(random_bitvector(256, rng));
  const NeighborGraph g(views(z), 4);  // essentially no edges
  const Clustering c = cluster_players(g, 5);
  // Everyone becomes an orphan in one fallback cluster.
  EXPECT_GE(c.orphans, 9u);
  for (PlayerId p = 0; p < 10; ++p)
    EXPECT_NE(c.cluster_of[p], Clustering::kNoClusterAssigned);
}

TEST(ClusterPlayers, DiameterStaysBoundedOnPlanted) {
  // Lemma 9(3): cluster diameter = O(D) in true preference space.
  const std::size_t D = 10;
  const World w = planted_clusters(80, 256, 4, D, Rng(7));
  std::vector<BitVector> z;
  for (PlayerId p = 0; p < 80; ++p) z.push_back(w.matrix.row(p));
  const NeighborGraph g(views(z), D);  // true distances as the estimate
  const Clustering c = cluster_players(g, 20);
  for (const auto& cluster : c.clusters) {
    EXPECT_LE(w.matrix.diameter(cluster), 4 * D);
  }
}

TEST(Clustering, MinClusterSizeOfEmptyClusteringIsZero) {
  // Regression: min_cluster_size() used to start from SIZE_MAX and only map
  // the empty case back to 0 at the end; it now computes the min directly.
  const Clustering empty;
  EXPECT_EQ(empty.min_cluster_size(), 0u);
  EXPECT_EQ(empty.max_cluster_size(), 0u);

  Clustering one;
  one.clusters.push_back({0, 1, 2});
  EXPECT_EQ(one.min_cluster_size(), 3u);
  EXPECT_EQ(one.max_cluster_size(), 3u);
}

TEST(ClusterPlayers, MinClusterOneDegenerates) {
  Rng rng(8);
  std::vector<BitVector> z = grouped_vectors(6, 2, 64, rng);
  const NeighborGraph g(views(z), 5);
  const Clustering c = cluster_players(g, 1);
  for (PlayerId p = 0; p < 6; ++p)
    EXPECT_NE(c.cluster_of[p], Clustering::kNoClusterAssigned);
}

class ClusteringGroupSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ClusteringGroupSweep, RecoversPlantedPartition) {
  const auto [groups, per_group] = GetParam();
  Rng rng(groups * 131 + per_group);
  const auto z = grouped_vectors(groups * per_group, groups, 256, rng);
  const NeighborGraph g(views(z), 20);
  const Clustering c = cluster_players(g, per_group);
  EXPECT_EQ(c.clusters.size(), groups);
  EXPECT_EQ(c.min_cluster_size(), per_group);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClusteringGroupSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(8, 16, 32)));

}  // namespace
}  // namespace colscore
