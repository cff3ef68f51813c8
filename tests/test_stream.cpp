// Streaming maintenance correctness (PR 10).
//
// The load-bearing invariant: after ANY sequence of apply_updates batches —
// flips, arrivals, departures, rebuild-fallback epochs, interleaved — the
// graph is byte-identical to a fresh build over the current rows + alive
// set, on both backends, under any policy. Everything downstream
// (clusterings, degree orderings, churn metrics) inherits determinism from
// that. The fuzz here drives mixed batches from seeded Rng streams and
// checks the equivalence after every single epoch, not just at the end.

#include "src/protocols/stream.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/model/generators.hpp"
#include "src/sim/churn.hpp"
#include "src/sim/registry.hpp"
#include "tests/test_util.hpp"

namespace colscore {
namespace {

constexpr std::size_t kDim = 256;
constexpr std::size_t kTau = 40;
constexpr std::size_t kMinCluster = 4;

/// Pinned by running the FixedSeedGoldenFingerprint script once at authoring
/// time; must reproduce everywhere (see that test's comment).
constexpr std::uint64_t kGoldenFingerprint = 3499066396291582376ull;

/// Same planted shape the CSR equivalence tests use: tight groups a couple
/// of flips wide, far apart from each other.
std::vector<BitVector> planted_z(std::size_t n, std::size_t groups, Rng rng) {
  std::vector<BitVector> centers;
  for (std::size_t g = 0; g < groups; ++g)
    centers.push_back(random_bitvector(kDim, rng));
  std::vector<BitVector> z;
  for (std::size_t i = 0; i < n; ++i) {
    BitVector v = centers[i % groups];
    v.flip(rng.below(kDim));
    v.flip(rng.below(kDim));
    z.push_back(std::move(v));
  }
  return z;
}

std::vector<ConstBitRow> views_of(const std::vector<BitVector>& rows) {
  return std::vector<ConstBitRow>(rows.begin(), rows.end());
}

/// Mutable churn state for the fuzz: rows + alive mask mirror what the graph
/// under test is told, so a fresh masked build over (rows, alive) is the
/// ground truth at every epoch.
struct FuzzWorld {
  std::vector<BitVector> rows;
  BitVector alive;

  explicit FuzzWorld(std::size_t n, Rng rng)
      : rows(planted_z(n, 8, rng)), alive(n, true) {}

  /// Draws one mixed epoch: departures, drift flips, re-arrivals. Mutates
  /// rows/alive in place and returns the batch apply_updates expects.
  std::vector<RowUpdate> epoch(Rng& rng) {
    std::vector<RowUpdate> batch;
    for (PlayerId p = 0; p < rows.size(); ++p) {
      const std::uint64_t roll = rng.below(100);
      if (alive.get(p)) {
        if (roll < 5) {
          alive.set(p, false);
          batch.push_back({p, UpdateKind::kDepart});
        } else if (roll < 25) {
          rows[p].flip(rng.below(kDim));
          if (roll < 15) rows[p].flip(rng.below(kDim));
          batch.push_back({p, UpdateKind::kFlip});
        }
      } else if (roll < 40) {
        alive.set(p, true);
        batch.push_back({p, UpdateKind::kArrive});
      }
    }
    return batch;
  }
};

void expect_matches_fresh(const NeighborGraph& inc, const FuzzWorld& world,
                          GraphBackend backend, const char* where) {
  const std::vector<ConstBitRow> z = views_of(world.rows);
  const NeighborGraph fresh(z, kTau, backend, ExecPolicy::serial(),
                            &world.alive);
  ASSERT_EQ(inc.size(), fresh.size()) << where;
  ASSERT_EQ(inc.backend(), fresh.backend()) << where;
  ASSERT_EQ(inc.alive_count(), fresh.alive_count()) << where;
  for (PlayerId p = 0; p < inc.size(); ++p) {
    ASSERT_EQ(inc.is_alive(p), fresh.is_alive(p)) << where << " p=" << p;
    ASSERT_EQ(inc.degree(p), fresh.degree(p)) << where << " p=" << p;
    for (PlayerId q = p + 1; q < inc.size(); ++q)
      ASSERT_EQ(inc.has_edge(p, q), fresh.has_edge(p, q))
          << where << " p=" << p << " q=" << q;
  }
  const Clustering a = cluster_players(inc, kMinCluster);
  const Clustering b = cluster_players(fresh, kMinCluster);
  EXPECT_EQ(a.cluster_of, b.cluster_of) << where;
  EXPECT_EQ(a.clusters, b.clusters) << where;
  EXPECT_EQ(a.leftovers, b.leftovers) << where;
  EXPECT_EQ(a.orphans, b.orphans) << where;
}

std::size_t total_edges(const NeighborGraph& g) {
  std::size_t sum = 0;
  for (PlayerId p = 0; p < g.size(); ++p) sum += g.degree(p);
  return sum / 2;
}

TEST(Stream, IncrementalMatchesFreshBuildUnderMixedChurn) {
  ThreadPool pool(4);
  const ExecPolicy policies[] = {ExecPolicy::serial(), ExecPolicy::pool(pool)};
  for (const GraphBackend backend : {GraphBackend::kDense, GraphBackend::kCsr})
    for (std::size_t which = 0; which < 2; ++which)
      for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const ExecPolicy& policy = policies[which];
        FuzzWorld world(120, Rng(seed));
        std::vector<ConstBitRow> z = views_of(world.rows);
        NeighborGraph graph(z, kTau, backend, policy);
        Rng churn_rng(seed * 1000 + 7);
        for (std::size_t e = 0; e < 12; ++e) {
          const std::vector<RowUpdate> batch = world.epoch(churn_rng);
          const std::size_t before = total_edges(graph);
          const GraphDelta delta = graph.apply_updates(batch, z, policy);
          const std::size_t after = total_edges(graph);
          // Delta accounting must reconcile with the degree cache whether or
          // not the epoch fell back to a rebuild.
          EXPECT_EQ(static_cast<long long>(after) -
                        static_cast<long long>(before),
                    static_cast<long long>(delta.edges_added) -
                        static_cast<long long>(delta.edges_removed))
              << "epoch " << e;
          expect_matches_fresh(graph, world, backend, "mixed churn");
        }
      }
}

TEST(Stream, LargeBatchFallsBackToRebuildAndStaysExact) {
  for (const GraphBackend backend :
       {GraphBackend::kDense, GraphBackend::kCsr}) {
    FuzzWorld world(96, Rng(5));
    std::vector<ConstBitRow> z = views_of(world.rows);
    NeighborGraph graph(z, kTau, backend, ExecPolicy::serial());
    // Flip a quarter of the population in one batch: >= n/8 forces the
    // documented full-rebuild fallback.
    std::vector<RowUpdate> batch;
    Rng rng(99);
    for (PlayerId p = 0; p < world.rows.size(); p += 4) {
      world.rows[p].flip(rng.below(kDim));
      world.rows[p].flip(rng.below(kDim));
      world.rows[p].flip(rng.below(kDim));
      batch.push_back({p, UpdateKind::kFlip});
    }
    const GraphDelta delta = graph.apply_updates(batch, z, testutil::pool_policy());
    EXPECT_TRUE(delta.rebuilt);
    expect_matches_fresh(graph, world, backend, "rebuild fallback");

    // A small follow-up batch must go back to the incremental path and stay
    // exact against the rebuilt state.
    world.rows[1].flip(rng.below(kDim));
    const RowUpdate single[] = {{1, UpdateKind::kFlip}};
    const GraphDelta d2 = graph.apply_updates(single, z, testutil::pool_policy());
    EXPECT_FALSE(d2.rebuilt);
    expect_matches_fresh(graph, world, backend, "post-rebuild increment");
  }
}

TEST(Stream, DepartureDropsAllEdgesAndArrivalRestoresThem) {
  for (const GraphBackend backend :
       {GraphBackend::kDense, GraphBackend::kCsr}) {
    FuzzWorld world(64, Rng(21));
    std::vector<ConstBitRow> z = views_of(world.rows);
    NeighborGraph graph(z, kTau, backend, ExecPolicy::serial());
    ASSERT_GT(graph.degree(3), 0u) << "planted input should connect player 3";
    const std::size_t degree_before = graph.degree(3);

    world.alive.set(3, false);
    const RowUpdate depart[] = {{3, UpdateKind::kDepart}};
    const GraphDelta gone = graph.apply_updates(depart, z, testutil::pool_policy());
    EXPECT_EQ(gone.edges_removed, degree_before);
    EXPECT_EQ(gone.edges_added, 0u);
    EXPECT_FALSE(graph.is_alive(3));
    EXPECT_EQ(graph.degree(3), 0u);
    for (PlayerId q = 0; q < graph.size(); ++q)
      EXPECT_FALSE(graph.has_edge(3, q)) << "q=" << q;
    expect_matches_fresh(graph, world, backend, "after depart");

    world.alive.set(3, true);
    const RowUpdate arrive[] = {{3, UpdateKind::kArrive}};
    const GraphDelta back = graph.apply_updates(arrive, z, testutil::pool_policy());
    EXPECT_EQ(back.edges_added, degree_before);
    EXPECT_EQ(graph.degree(3), degree_before);
    expect_matches_fresh(graph, world, backend, "after re-arrival");
  }
}

TEST(Stream, SessionReclustersOnlyOnDirtyEpochs) {
  FuzzWorld world(96, Rng(31));
  const std::vector<ConstBitRow> z = views_of(world.rows);
  StreamSession session(z, kTau, kMinCluster, GraphBackend::kAuto,
                        ExecPolicy::serial());
  const std::vector<std::uint32_t> initial = session.clustering().cluster_of;

  // Empty batch: nothing changed, the peel must not re-run.
  const StreamEpochStats idle = session.apply_epoch({}, testutil::pool_policy());
  EXPECT_FALSE(idle.reclustered);
  EXPECT_EQ(session.clustering().cluster_of, initial);
  EXPECT_EQ(session.totals().reclusters, 0u);

  // Move player 0 all the way across the space: edges change, peel re-runs,
  // and the result equals a from-scratch clustering of the current graph.
  for (std::size_t b = 0; b < kDim; b += 2) world.rows[0].flip(b);
  const RowUpdate batch[] = {{0, UpdateKind::kFlip}};
  const StreamEpochStats moved = session.apply_epoch(batch, testutil::pool_policy());
  EXPECT_TRUE(moved.reclustered);
  EXPECT_GT(moved.edges_added + moved.edges_removed, 0u);
  const Clustering fresh =
      cluster_players(session.graph(), session.min_cluster());
  EXPECT_EQ(session.clustering().cluster_of, fresh.cluster_of);
  EXPECT_EQ(session.clustering().clusters, fresh.clusters);
  EXPECT_EQ(session.totals().epochs, 2u);
  EXPECT_EQ(session.totals().reclusters, 1u);
}

TEST(Stream, RunChurnIsDeterministicAcrossPoliciesAndRepeats) {
  ChurnConfig config;
  config.epochs = 8;
  config.flip_rate = 0.10;
  config.depart = 0.05;
  config.arrive = 0.5;
  config.threshold = kTau;
  config.min_cluster = kMinCluster;

  const auto run = [&](const ExecPolicy& policy) {
    World w = planted_clusters(96, kDim, 8, 4, Rng(77));
    Rng rng(123);
    const ChurnStats stats = run_churn(w.matrix, config, rng, policy);
    std::vector<std::uint64_t> hashes;
    for (PlayerId p = 0; p < w.matrix.n_players(); ++p)
      hashes.push_back(std::as_const(w.matrix).row(p).content_hash());
    return std::pair<ChurnStats, std::vector<std::uint64_t>>(stats, hashes);
  };

  ThreadPool pool(4);
  const auto serial = run(ExecPolicy::serial());
  const auto pooled = run(ExecPolicy::pool(pool));
  EXPECT_EQ(serial.second, pooled.second) << "drifted matrix diverged";
  EXPECT_EQ(serial.first.edges_changed, pooled.first.edges_changed);
  EXPECT_EQ(serial.first.reclusters, pooled.first.reclusters);
  EXPECT_EQ(serial.first.rebuilds, pooled.first.rebuilds);
  EXPECT_EQ(serial.first.final_alive, pooled.first.final_alive);
  EXPECT_EQ(serial.first.final_clusters, pooled.first.final_clusters);
  EXPECT_EQ(serial.first.epochs, 8u);
  EXPECT_GT(serial.first.flips, 0u);
}

TEST(Stream, ChurnWorkloadPublishesItsMetrics) {
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(
      "workload=churn n=64 budget=4 diameter=8 seed=9 opt=0 epochs=6 "
      "flip_rate=0.05 depart=0.1 arrive=0.5"));
  const ExperimentOutcome out = run_scenario(sc, testutil::pool_policy());

  const auto find = [&](const char* key) -> const MetricValue* {
    for (const auto& [k, v] : out.entry_metrics)
      if (k == key) return &v;
    return nullptr;
  };
  const MetricValue* epochs = find("epochs");
  ASSERT_NE(epochs, nullptr);
  EXPECT_EQ(epochs->as_u64(), 6u);
  ASSERT_NE(find("edges_changed"), nullptr);
  const MetricValue* rebuild_fraction = find("rebuild_fraction");
  ASSERT_NE(rebuild_fraction, nullptr);
  EXPECT_GE(rebuild_fraction->as_f64(), 0.0);
  EXPECT_LE(rebuild_fraction->as_f64(), 1.0);
  const MetricValue* recluster_fraction = find("recluster_fraction");
  ASSERT_NE(recluster_fraction, nullptr);
  EXPECT_LE(recluster_fraction->as_f64(), 1.0);
  ASSERT_NE(find("stream_arrivals"), nullptr);
  ASSERT_NE(find("stream_departures"), nullptr);

  // Same scenario, same seed: the whole drift trajectory must replay.
  const ExperimentOutcome again = run_scenario(sc, testutil::pool_policy());
  ASSERT_EQ(out.entry_metrics.size(), again.entry_metrics.size());
  for (std::size_t i = 0; i < out.entry_metrics.size(); ++i) {
    EXPECT_EQ(out.entry_metrics[i].first, again.entry_metrics[i].first);
    EXPECT_EQ(out.entry_metrics[i].second.as_number(),
              again.entry_metrics[i].second.as_number())
        << out.entry_metrics[i].first;
  }
  EXPECT_EQ(out.error.max_error, again.error.max_error);
}

TEST(Stream, ChurnStreamTauZeroKeepsTheDerivedThreshold) {
  const std::string base =
      "workload=churn n=64 budget=4 diameter=8 dishonest=0 opt=0 epochs=8 "
      "flip_rate=0.05";
  const auto run = [&](const std::string& extra) {
    return run_scenario(
        Scenario::resolve(ScenarioSpec::parse(base + " " + extra)),
        testutil::pool_policy());
  };
  const auto edges_changed = [](const ExperimentOutcome& out) {
    for (const auto& [k, v] : out.entry_metrics)
      if (k == "edges_changed") return v.as_u64();
    ADD_FAILURE() << "edges_changed not published";
    return std::uint64_t{0};
  };

  const ExperimentOutcome dflt = run("");
  // 0 means "derive" (2*diameter = 16), as the schema documents.
  for (const std::string extra : {"stream_tau=0", "stream_tau=16"}) {
    const ExperimentOutcome out = run(extra);
    ASSERT_EQ(out.entry_metrics.size(), dflt.entry_metrics.size()) << extra;
    for (std::size_t i = 0; i < out.entry_metrics.size(); ++i) {
      EXPECT_EQ(out.entry_metrics[i].first, dflt.entry_metrics[i].first);
      EXPECT_EQ(out.entry_metrics[i].second.as_number(),
                dflt.entry_metrics[i].second.as_number())
          << extra << " " << out.entry_metrics[i].first;
    }
    EXPECT_EQ(out.error.max_error, dflt.error.max_error) << extra;
    EXPECT_EQ(out.error.mean_error, dflt.error.mean_error) << extra;
    EXPECT_EQ(out.total_probes, dflt.total_probes) << extra;
  }
  // The comparison is sensitive: a real override changes the stream.
  EXPECT_NE(edges_changed(run("stream_tau=3")), edges_changed(dflt));
}

TEST(Stream, ChurnRejectsOutOfRangeKnobsByName) {
  const std::string base = "workload=churn n=64 budget=4 diameter=8 opt=0 ";
  const std::pair<const char*, const char*> bad[] = {
      {"flip_bits", "100000"}, {"flip_bits", "65"},   {"flip_rate", "nan"},
      {"flip_rate", "-0.5"},   {"flip_rate", "1.01"}, {"arrive", "-1"},
      {"depart", "1.5"},       {"depart", "inf"},
  };
  for (const auto& [key, value] : bad) {
    const std::string kv = std::string(key) + "=" + value;
    const Scenario sc = Scenario::resolve(ScenarioSpec::parse(base + kv));
    try {
      (void)build_scenario_world(sc, ExecPolicy::serial());
      ADD_FAILURE() << kv << ": expected ScenarioError";
    } catch (const ScenarioError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + kv + "'"), std::string::npos) << msg;
    }
  }
  // The bounds themselves are valid.
  for (const char* kv : {"flip_bits=64", "flip_rate=1", "arrive=0", "depart=1"})
    EXPECT_NO_THROW((void)build_scenario_world(
        Scenario::resolve(ScenarioSpec::parse(base + "epochs=2 " + kv)),
        ExecPolicy::serial()))
        << kv;

  // The graph backend is not a workload knob: churn always auto-resolves.
  EXPECT_THROW(
      Scenario::resolve(ScenarioSpec::parse(base + "stream_backend=csr")),
      ScenarioError);
}

/// Fixed-seed golden: the exact final state of one pinned churn script. Any
/// behavioural drift in the update path, the draw order, or the peel shows
/// up here as a diff, on every machine (nothing below depends on schedule,
/// SIMD tier, or backend — dense and csr must agree bit for bit).
TEST(Stream, FixedSeedGoldenFingerprint) {
  const auto fingerprint = [](GraphBackend backend) {
    FuzzWorld world(80, Rng(4242));
    std::vector<ConstBitRow> z = views_of(world.rows);
    NeighborGraph graph(z, kTau, backend, ExecPolicy::serial());
    Rng rng(31337);
    for (std::size_t e = 0; e < 10; ++e)
      graph.apply_updates(world.epoch(rng), z, testutil::pool_policy());
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the end state
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 1099511628211ull;
    };
    for (PlayerId p = 0; p < graph.size(); ++p) {
      mix(graph.degree(p));
      mix(graph.is_alive(p) ? 1 : 0);
    }
    const Clustering c = cluster_players(graph, kMinCluster);
    for (const std::uint32_t id : c.cluster_of) mix(id);
    mix(total_edges(graph));
    mix(graph.alive_count());
    return h;
  };
  const std::uint64_t dense = fingerprint(GraphBackend::kDense);
  const std::uint64_t csr = fingerprint(GraphBackend::kCsr);
  EXPECT_EQ(dense, csr);
  EXPECT_EQ(dense, kGoldenFingerprint);
}

}  // namespace
}  // namespace colscore
