// churn4096: a StreamSession over a planted z family under drift,
// departures and re-arrivals, with a periodic burst large enough to cross
// NeighborGraph's n/8 rebuild fallback. One epoch is the closed-loop
// operation: the next epoch is drawn only after apply_epoch returns.
//
// It never runs SmallRadius or voting, so it is the no-change control for
// protocol optimisations, and it reaches the neighbor-graph layer through
// incremental updates rather than full builds. The traced replay drives
// NeighborGraph::apply_updates and cluster_players directly and must
// reproduce the session's clustering epoch by epoch.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/exec_policy.hpp"
#include "src/protocols/stream.hpp"
#include "trace.hpp"

namespace colscore::bench {

namespace {

struct ChurnShape {
  std::size_t n = 4096;
  std::size_t groups = 256;  // planted clusters of n / groups rows
  std::size_t dim = 4096;    // |S|
  std::size_t spread = 40;   // mean distance of a row from its cluster centre
  std::size_t tau = 96;      // edge threshold; the auto backend picks CSR
  std::size_t warmup_epochs = 200;
  std::size_t check_every = 500;
  // Least timed epochs per episode: 16 bursts (see timed_churn). The
  // traced replay times at least this many too.
  std::size_t episode_epochs = 1024;
  double drift = 0.01;  // share of alive rows that drift per epoch
  std::size_t drift_bits = 2;
  double depart = 0.002;
  double arrive = 0.25;  // share of departed rows that return per epoch
  // Every burst_every-th epoch drifts `burst` of the rows: a batch of at
  // least n/8 updates, which NeighborGraph answers with a full rebuild.
  std::size_t burst_every = 64;
  double burst = 0.15;

  std::size_t min_cluster() const {
    return std::max<std::size_t>(2, n / groups * 2 / 3);
  }
};

ChurnShape churn_shape(bool smoke) {
  ChurnShape shape;
  if (smoke) {
    shape.n = 256;
    shape.groups = 16;
    shape.dim = 512;
    shape.spread = 8;
    shape.tau = 24;
    shape.warmup_epochs = 70;  // includes one burst
    shape.check_every = 50;
    shape.episode_epochs = 128;
  }
  return shape;
}

bool chance(Rng& rng, double p) {
  return static_cast<double>(rng() >> 11) * 0x1p-53 < p;
}

/// The mutating rows and the seeded epochs that drive them. Never moved: a
/// graph built over views() observes the rows in place.
///
/// Drift is stationary, so a run measures the same regime however many
/// epochs it lasts: a row's bits differ from its cluster centre
/// independently with probability q = spread/dim, and each drift step moves
/// one bit toward or away from the centre with the probabilities that keep
/// that distribution (a biased Ehrenfest walk). Intra-cluster distances
/// then stay near 2·spread, just under tau, and drift keeps moving pairs
/// across the threshold. Unbiased flips would instead carry every row away
/// from its cluster until the graph emptied.
class Stream {
 public:
  Stream(const ChurnShape& shape, std::uint64_t seed)
      : shape_(shape),
        z_(shape.n, shape.dim),
        off_(shape.n, 0),
        rng_(mix_keys(seed, 0xe90cULL)),
        alive_(shape.n, true) {
    Rng family(mix_keys(seed, 0x2f10ULL));
    for (std::size_t g = 0; g < shape.groups; ++g)
      centers_.push_back(random_bitvector(shape.dim, family));
    const double q = static_cast<double>(shape.spread) / static_cast<double>(shape.dim);
    for (PlayerId p = 0; p < shape.n; ++p) {
      BitRow row = z_.row(p);
      row = centers_[p % shape.groups];
      for (std::size_t j = 0; j < shape.dim; ++j)
        if (chance(family, q)) {
          row.flip(j);
          ++off_[p];
        }
    }
    views_ = z_.row_views();
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Draws the next epoch — departures, re-arrivals, and drift applied to
  /// the rows — and returns its batch. Untimed: callers time only what the
  /// library does with the batch.
  const std::vector<RowUpdate>& advance() {
    const bool burst = (epoch_ + 1) % shape_.burst_every == 0;
    const double drift = burst ? shape_.burst : shape_.drift;
    batch_.clear();
    for (PlayerId p = 0; p < shape_.n; ++p) {
      if (alive_.get(p)) {
        if (chance(rng_, shape_.depart)) {
          alive_.set(p, false);
          batch_.push_back({p, UpdateKind::kDepart});
        } else if (chance(rng_, drift)) {
          batch_.push_back({p, UpdateKind::kFlip});
        }
      } else if (chance(rng_, shape_.arrive)) {
        alive_.set(p, true);
        batch_.push_back({p, UpdateKind::kArrive});
      }
    }
    for (const RowUpdate& u : batch_)
      if (u.kind == UpdateKind::kFlip)
        for (std::size_t b = 0; b < shape_.drift_bits; ++b) drift_step(u.player);
    ++epoch_;
    return batch_;
  }

  std::span<const ConstBitRow> views() const { return views_; }
  /// Ground truth the incremental graph is checked against.
  const BitVector& alive() const { return alive_; }

 private:
  void drift_step(PlayerId p) {
    const auto d = static_cast<double>(off_[p]);
    const double q = static_cast<double>(shape_.spread) / static_cast<double>(shape_.dim);
    const bool toward = chance(
        rng_, d * (1 - q) / (d * (1 - q) + (static_cast<double>(shape_.dim) - d) * q));
    BitRow row = z_.row(p);
    const BitVector& center = centers_[p % shape_.groups];
    std::size_t j = 0;
    do {
      j = rng_.below(shape_.dim);
    } while ((row.get(j) != center.get(j)) != toward);
    row.flip(j);
    off_[p] = toward ? off_[p] - 1 : off_[p] + 1;
  }

  ChurnShape shape_;
  std::vector<BitVector> centers_;
  BitMatrix z_;
  std::vector<ConstBitRow> views_;
  std::vector<std::size_t> off_;  // distance of each row from its centre
  Rng rng_;
  BitVector alive_;
  std::size_t epoch_ = 0;
  std::vector<RowUpdate> batch_;
};

std::uint64_t clustering_hash(const Clustering& c) {
  Fnv fnv;
  for (const std::uint32_t id : c.cluster_of) fnv.add_u64(id);
  fnv.add_u64(c.clusters.size());
  fnv.add_u64(c.leftovers);
  fnv.add_u64(c.orphans);
  return fnv.value();
}

/// Untimed gate: the session's graph and clustering equal a fresh
/// alive-masked build over the current rows.
void check_against_fresh(const StreamSession& session, const Stream& stream,
                         const ChurnShape& shape, std::size_t epoch,
                         Report& report) {
  const NeighborGraph& graph = session.graph();
  const BitVector& alive = stream.alive();
  const NeighborGraph fresh(stream.views(), shape.tau, graph.backend(),
                            ExecPolicy::serial(), &alive);
  const std::string at = "churn epoch " + std::to_string(epoch) + ": ";
  for (PlayerId p = 0; p < shape.n; ++p) {
    const bool same =
        graph.is_alive(p) == alive.get(p) && graph.degree(p) == fresh.degree(p) &&
        (graph.backend() == GraphBackend::kDense
             ? graph.row(p) == fresh.row(p)
             : std::ranges::equal(graph.neighbors(p), fresh.neighbors(p)));
    if (!same) {
      report.fail(at + "player " + std::to_string(p) +
                  " differs from a fresh alive-masked build");
      return;
    }
  }
  const Clustering expected = cluster_players(fresh, shape.min_cluster());
  const Clustering& got = session.clustering();
  if (got.cluster_of != expected.cluster_of || got.clusters != expected.clusters ||
      got.leftovers != expected.leftovers || got.orphans != expected.orphans)
    report.fail(at + "clustering differs from peeling a fresh build");
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void timed_churn(const ChurnShape& shape, const Options& options,
                 const Timer& since_main, Report& report) {
  start_gauge();
  const ExecPolicy serial = ExecPolicy::serial();
  std::unique_ptr<StreamSession> session;
  std::unique_ptr<Stream> stream;
  std::vector<Interval> setups;
  std::vector<Interval> epochs;
  // Reserved up front, untouched pages and all: growing it would add its
  // reallocations to peak_rss_mb.
  epochs.reserve(std::size_t{1} << 16);

  // The window is kSetupReps episodes. Each opens with a set-up (stream,
  // session, warm-up) and then runs the same seeded epochs: the first
  // episode whole blocks of burst_every epochs, at least episode_epochs,
  // until its share of the window is up, and each later one exactly as
  // many, so the first episode's clustering after each epoch is what the
  // later ones must reproduce. The episode count is fixed because each
  // episode leaves the heap a little larger: a count that followed the
  // host's speed would move peak_rss_mb with it.
  std::vector<std::uint64_t> first_clustering;
  StreamTotals first_episode;
  const double before_setup_s = since_main.seconds();
  const std::size_t episodes = options.smoke ? 1 : kSetupReps;
  const double share_s = options.seconds / static_cast<double>(episodes);
  for (std::size_t episode = 0; episode < episodes; ++episode) {
    session.reset();
    stream.reset();
    malloc_trim(0);  // see kSetupReps
    const GaugeTimer setup;
    stream = std::make_unique<Stream>(shape, options.seed);
    session = std::make_unique<StreamSession>(
        stream->views(), shape.tau, shape.min_cluster(), GraphBackend::kAuto, serial);
    for (std::size_t e = 0; e < shape.warmup_epochs; ++e)
      session->apply_epoch(stream->advance(), serial);
    setups.push_back(setup.stop());
    if (episode == 0)
      report.set_fingerprint(hex64(clustering_hash(session->clustering())));
    const StreamTotals warm = session->totals();

    const Timer window;
    for (std::size_t e = 1;; ++e) {
      const std::vector<RowUpdate>& batch = stream->advance();
      const GaugeTimer op;
      session->apply_epoch(batch, serial);
      epochs.push_back(op.stop());
      report.attempt();
      const std::uint64_t clustering = clustering_hash(session->clustering());
      if (episode == 0) {
        first_clustering.push_back(clustering);
        if (e % shape.check_every == 0)
          check_against_fresh(*session, *stream, shape, e, report);
      } else if (clustering != first_clustering[e - 1]) {
        report.fail("churn epoch " + std::to_string(e) + ": episode " +
                    std::to_string(episode) +
                    " clustering differs from the first episode's");
      }
      if (episode > 0 ? e == first_clustering.size()
                      : e >= shape.episode_epochs && e % shape.burst_every == 0 &&
                            window.seconds() >= share_s)
        break;
    }
    if (episode == 0) {
      first_episode.rebuilds = session->totals().rebuilds - warm.rebuilds;
      first_episode.reclusters = session->totals().reclusters - warm.reclusters;
    }
  }

  // Scaled now that every sample is in: ops_per_s and op_ms_p50 from the
  // scaled epochs, epochs_per_s and epoch_ms_* from the wall-clock ones.
  std::vector<double> epoch_ms;
  std::vector<double> scaled_ms;
  for (const Interval& interval : epochs) {
    epoch_ms.push_back(interval.seconds * 1e3);
    scaled_ms.push_back(scaled_seconds(interval) * 1e3);
  }
  std::vector<double> setup_s;
  std::vector<double> wall_setup_s;
  for (const Interval& interval : setups) {
    setup_s.push_back(before_setup_s + scaled_seconds(interval));
    wall_setup_s.push_back(before_setup_s + interval.seconds);
  }

  report.note("setup_samples_s", join(setup_s));
  report.note("wall_setup_samples_s", join(wall_setup_s));
  report.add("setup_s", median(setup_s), "s");
  report.add("ops_per_s",
             static_cast<double>(scaled_ms.size()) / (sum(scaled_ms) / 1e3), "1/s");
  report.add("op_ms_p50", median(scaled_ms), "ms");
  report.add("wall_setup_s", median(wall_setup_s), "s");
  report.add("host_slowdown", host_slowdown(), "ratio");
  report.add("epochs_per_s",
             static_cast<double>(epoch_ms.size()) / (sum(epoch_ms) / 1e3), "1/s");
  report.add("epoch_ms_p50", quantile(epoch_ms, 0.5), "ms");
  report.add("epoch_ms_p99", quantile(epoch_ms, 0.99), "ms");
  report.add("op_samples", static_cast<double>(epoch_ms.size()), "count");
  report.add("episodes", static_cast<double>(setup_s.size()), "count");
  report.add("stream_rebuilds", static_cast<double>(first_episode.rebuilds), "count");
  report.add("stream_reclusters", static_cast<double>(first_episode.reclusters), "count");
  report.add("threads", 1.0, "count");
  report.note("backend", backend_name(session->graph().backend()));
}

void traced_churn(const ChurnShape& shape, const Options& options,
                  Report& report) {
  const ExecPolicy serial = ExecPolicy::serial();
  const std::size_t min_cluster = shape.min_cluster();

  // Untraced half: the library's StreamSession; its clustering after every
  // epoch is the replay's reference.
  std::vector<std::uint64_t> reference;
  std::vector<double> epoch_ms;
  std::uint64_t warm_hash = 0;
  GraphBackend backend = GraphBackend::kAuto;
  double loop_s = 0.0;
  {
    Stream stream(shape, options.seed);
    StreamSession session(stream.views(), shape.tau, min_cluster,
                          GraphBackend::kAuto, serial);
    for (std::size_t e = 0; e < shape.warmup_epochs; ++e)
      session.apply_epoch(stream.advance(), serial);
    warm_hash = clustering_hash(session.clustering());
    backend = session.graph().backend();
    const Timer window;
    for (std::size_t e = 1;; ++e) {
      const std::vector<RowUpdate>& batch = stream.advance();
      const Timer timer;
      session.apply_epoch(batch, serial);
      epoch_ms.push_back(timer.millis());
      reference.push_back(clustering_hash(session.clustering()));
      report.attempt();
      if (e >= shape.episode_epochs && window.seconds() >= options.seconds / 2) break;
    }
    loop_s = window.seconds();
  }

  // Traced half: the same epochs through the graph layer directly.
  Stream stream(shape, options.seed);
  NeighborGraph graph(stream.views(), shape.tau, GraphBackend::kAuto, serial);
  if (graph.backend() != backend)
    throw ReplayError("churn replay resolved another graph backend than "
                      "StreamSession");
  Clustering clustering = cluster_players(graph, min_cluster);
  for (std::size_t e = 0; e < shape.warmup_epochs; ++e)
    if (graph.apply_updates(stream.advance(), stream.views(), serial).dirty())
      clustering = cluster_players(graph, min_cluster);
  if (clustering_hash(clustering) != warm_hash)
    throw ReplayError("churn replay diverged from StreamSession during the "
                      "warm-up epochs");

  std::size_t edges = 0;
  for (PlayerId p = 0; p < shape.n; ++p) edges += graph.degree(p);
  edges /= 2;
  TraceStore store;
  LayerCounts counts;
  for (std::size_t e = 0; e < reference.size(); ++e) {
    const std::vector<RowUpdate>& batch = stream.advance();
    SpanLog log(e);
    GraphDelta delta;
    {
      ScopedSpan root(log, "stream.epoch");
      const std::uint32_t update = log.open("stream.update");
      delta = graph.apply_updates(batch, stream.views(), serial);
      log.close(update);
      if (delta.rebuilt) log.rename(update, "stream.rebuild");
      if (delta.dirty()) {
        ScopedSpan peel(log, "stream.peel");
        clustering = cluster_players(graph, min_cluster);
      }
    }
    if (clustering_hash(clustering) != reference[e])
      throw ReplayError("churn replay diverged from StreamSession's clustering "
                        "at timed epoch " + std::to_string(e + 1));
    edges = edges + delta.edges_added - delta.edges_removed;
    counts.graph_degree_sum += 2 * edges;
    counts.edges_changed += delta.edges_changed();
    counts.rebuild_epochs += delta.rebuilt ? 1 : 0;
    counts.recluster_epochs += delta.dirty() ? 1 : 0;
    store.merge(log);
    report.attempt();
  }

  store.report_layers(report, reference.size());
  counts.report_to(report, reference.size());
  report.add("suite.busy_frac", sum(epoch_ms) / 1e3 / loop_s, "frac");
  report.add("trace.overhead_frac", 1.0 - sum(epoch_ms) / store.root_ms(), "frac");
  report.add("threads", 1.0, "count");
  if (!options.trace_out.empty()) store.write_chrome(options.trace_out);
}

}  // namespace

bool is_churn_workload(std::string_view name) { return name == "churn4096"; }

void run_churn_workload(const Options& options, const Timer& since_main,
                        Report& report) {
  const ChurnShape shape = churn_shape(options.smoke);
  if (options.trace)
    traced_churn(shape, options, report);
  else
    timed_churn(shape, options, since_main, report);
}

}  // namespace colscore::bench
