// grid18, grid18_t4 and sleeper2048: scenario suites run through
// SuiteRunner as closed loops of passes (the next pass starts when the
// previous one has returned), and the traced replay of the same runs.
//
// The replay calls the library's layers one by one — world, population, the
// Fig. 2 steps of calculate_preferences, error metrics, the JSONL sink —
// with a span around each call, then checks that it reproduced what
// run_scenario computed for the same planned run.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/board/shared_random.hpp"
#include "src/common/bitmatrix.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/mathutil.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/workspace.hpp"
#include "src/core/calculate_preferences.hpp"
#include "src/metrics/error.hpp"
#include "src/protocols/neighbor_graph.hpp"
#include "src/protocols/select.hpp"
#include "src/protocols/small_radius.hpp"
#include "src/protocols/work_share.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"
#include "trace.hpp"

namespace colscore::bench {

namespace {

/// One suite workload. Pass k runs the grid cycle[k % cycle.size()] over
/// `base`; a pass is the unit the closed loop issues.
struct SuiteShape {
  std::string base;
  std::vector<std::string> cycle;
  std::size_t threads = 1;
  std::size_t min_passes = 1;
};

SuiteShape suite_shape(std::string_view name, std::uint64_t seed, bool smoke) {
  SuiteShape shape;
  if (name == "sleeper2048") {
    // dishonest = n / (3B): the paper's tolerance edge. One run per pass,
    // each pass the next of `runs` seeds.
    shape.base = smoke ? "workload=planted n=128 budget=4 adversary=sleeper "
                         "dishonest=10 opt=0"
                       : "workload=planted n=2048 budget=8 adversary=sleeper "
                         "dishonest=85 opt=0";
    const std::size_t runs = smoke ? 2 : 6;
    for (std::size_t k = 0; k < runs; ++k)
      shape.cycle.push_back("seed=" + std::to_string(seed + k));
    shape.min_passes = runs;
    return shape;
  }
  // The pinned grid of the BENCH_*.json records (at seed 1, seeds 1,2,3).
  std::string seeds = "seed=" + std::to_string(seed);
  for (std::size_t k = 1; k < (smoke ? 2 : 3); ++k)
    seeds += "," + std::to_string(seed + k);
  shape.base = smoke ? "workload=planted budget=4 dishonest=4 opt=0"
                     : "workload=planted budget=8 dishonest=8 opt=0";
  shape.cycle = {(smoke ? "n=48,64 x adversary=none,sleeper x "
                        : "n=256,512 x adversary=none,hijacker,sleeper x ") +
                 seeds};
  if (name == "grid18_t4")
    shape.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  shape.min_passes = smoke ? 1 : 3;
  return shape;
}

/// Resolved specs, run plans and the sink schema of one suite workload,
/// plus the SuiteRunner every pass goes through.
class SuiteBench {
 public:
  explicit SuiteBench(const SuiteShape& shape)
      : threads_(shape.threads), columns_(default_columns()), runner_([&] {
          SuiteOptions options;
          options.threads = shape.threads;
          options.on_result = [this](const SuiteRun& run) {
            stream_->write(make_run_record(run, schema_));
            // On one thread this runs between two runs, on the pass's own
            // thread.
            if (threads_ == 1) {
              run_intervals_.push_back(run_timer_.stop());
              run_timer_ = GaugeTimer();
            }
          };
          return options;
        }()) {
    std::vector<ScenarioSpec> all;
    for (const std::string& grid : shape.cycle) {
      const std::vector<ScenarioSpec> specs =
          expand_grid(ScenarioSpec::parse(shape.base), parse_grid(grid));
      plans_.push_back(runner_.plan(specs));
      all.insert(all.end(), specs.begin(), specs.end());
    }
    schema_ = suite_metric_schema(std::span<const ScenarioSpec>(all));
  }
  SuiteBench(const SuiteBench&) = delete;
  SuiteBench& operator=(const SuiteBench&) = delete;

  std::size_t cycle() const { return plans_.size(); }
  std::size_t threads() const { return threads_; }
  const MetricSchema& schema() const { return schema_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<SuiteRun>& plan(std::size_t k) const {
    return plans_[k % plans_.size()];
  }

  /// Runs pass k, streaming every run through a JSONL sink the way a sweep
  /// does; returns the pass's interval. `runs` receives the executed runs.
  Interval run_pass(std::size_t k, std::vector<SuiteRun>& runs) {
    runs = plan(k);
    std::ostringstream rows;
    run_intervals_.clear();
    const GaugeTimer pass;
    run_timer_ = GaugeTimer();
    SinkConfig config;
    config.stream = &rows;
    JsonlSink sink(config);
    RecordStream stream(sink, schema_, columns_);
    stream_ = &stream;
    runner_.execute(runs);
    stream.finish();
    const Interval interval = pass.stop();
    stream_ = nullptr;
    return interval;
  }

  /// On one thread, each run of the last pass from the previous run's
  /// record write to its own: the run's closed-loop cost, with its teardown
  /// and its record's write.
  const std::vector<Interval>& run_intervals() const { return run_intervals_; }

 private:
  std::size_t threads_;
  std::vector<std::string> columns_;
  MetricSchema schema_;
  RecordStream* stream_ = nullptr;
  GaugeTimer run_timer_;
  std::vector<Interval> run_intervals_;
  std::vector<std::vector<SuiteRun>> plans_;
  SuiteRunner runner_;
};

std::string run_label(const SuiteRun& run) {
  return "run " + std::to_string(run.index) + " (" + run.spec.to_string() + ")";
}

/// The per-run gates: status ok, and honest error within max(4·D, 10) —
/// test_properties' bound under at most n/(3B) dishonest players.
void check_run(const SuiteRun& run, Report& report) {
  if (run.status != RunStatus::kOk) {
    report.fail(run_label(run) + ": status " + run_status_name(run.status) +
                ": " + run.error);
    return;
  }
  const std::size_t bound =
      std::max<std::size_t>(4 * run.outcome.planted_diameter, 10);
  if (run.outcome.error.max_error > bound)
    report.fail(run_label(run) + ": honest max_err " +
                std::to_string(run.outcome.error.max_error) +
                " exceeds max(4D, 10) = " + std::to_string(bound));
}

/// FNV over the run's default-column cells (the CSV row a sweep emits).
std::uint64_t row_hash(const SuiteRun& run) {
  Fnv fnv;
  for (const std::string& cell : suite_row_cells(run)) {
    fnv.add(cell);
    fnv.add("\x1f");
  }
  return fnv.value();
}

/// Row hashes of the first pass of every cycle entry; later passes (and the
/// serial reference of a threaded suite) must reproduce them.
class RowBook {
 public:
  explicit RowBook(std::size_t cycle) : rows_(cycle) {}

  void check(std::size_t k, const std::vector<SuiteRun>& runs, Report& report,
             const char* what) {
    std::vector<std::uint64_t>& ref = rows_[k % rows_.size()];
    if (ref.empty()) {
      for (const SuiteRun& run : runs) ref.push_back(row_hash(run));
      return;
    }
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (row_hash(runs[i]) != ref[i])
        report.fail(run_label(runs[i]) + ": " + what +
                    " row differs from the first pass");
  }

  /// FNV over every recorded row, in cycle order.
  std::string fingerprint() const {
    Fnv fnv;
    for (const auto& entry : rows_)
      for (const std::uint64_t h : entry) fnv.add_u64(h);
    return hex64(fnv.value());
  }

 private:
  std::vector<std::vector<std::uint64_t>> rows_;
};

/// The paper's cost and accuracy over one cycle of distinct runs.
struct ExactTotals {
  std::uint64_t probes_total = 0;
  std::uint64_t probes_honest_max = 0;
  std::uint64_t err_honest_max = 0;
  double err_sum = 0.0;  // mean_error weighted by honest players
  std::uint64_t honest = 0;

  void add(const ExperimentOutcome& o) {
    probes_total += o.total_probes;
    probes_honest_max = std::max(probes_honest_max, o.honest_max_probes);
    err_honest_max = std::max<std::uint64_t>(err_honest_max, o.error.max_error);
    err_sum += o.error.mean_error * static_cast<double>(o.honest_players);
    honest += o.honest_players;
  }

  void report_to(Report& report) const {
    report.add("probes_total", static_cast<double>(probes_total), "probes");
    report.add("probes_honest_max", static_cast<double>(probes_honest_max),
               "probes");
    report.add("err_honest_max", static_cast<double>(err_honest_max), "bits");
    report.add("err_honest_mean",
               honest == 0 ? 0.0 : err_sum / static_cast<double>(honest), "bits");
  }
};

/// Median over repetitions of the scaled time.
double scaled_median(const std::vector<Interval>& reps) {
  std::vector<double> seconds;
  for (const Interval& interval : reps) seconds.push_back(scaled_seconds(interval));
  return median(seconds);
}

void timed_suite(const SuiteShape& shape, const Options& options,
                 const Timer& since_main, Report& report) {
  start_gauge();
  const std::size_t cycle = shape.cycle.size();
  const bool serial = shape.threads == 1;
  RowBook book(cycle);
  std::unique_ptr<SuiteBench> bench;
  std::vector<SuiteRun> runs;
  std::vector<Interval> setups;

  // Every pass of a cycle entry repeats the same runs on the same inputs
  // (the row checks below prove it), so each run's cost is the median of
  // its repetitions. On one thread each repetition is timed on its own; on
  // a pool, whose runs overlap, a run's wall time is scaled by the samples
  // of its pass.
  std::vector<std::vector<std::vector<Interval>>> run_reps(cycle);  // [entry][run][rep]
  std::vector<std::vector<Interval>> pass_reps(cycle);              // [entry][rep]
  std::vector<double> pass_rate;   // runs per wall second, every pass
  std::vector<double> run_wall_s;  // every run
  ExactTotals exact;

  // Each segment of the window opens with a set-up (see kSetupReps); the
  // passes continue through the cycle across segments.
  const std::size_t segments = options.smoke ? 1 : kSetupReps;
  const double before_setup_s = since_main.seconds();
  std::size_t k = 0;
  for (std::size_t segment = 0; segment < segments; ++segment) {
    bench.reset();
    malloc_trim(0);  // see kSetupReps
    const GaugeTimer setup;
    bench = std::make_unique<SuiteBench>(shape);
    bench->run_pass(0, runs);  // warm-up
    setups.push_back(setup.stop());
    for (const SuiteRun& run : runs) check_run(run, report);
    book.check(0, runs, report, "warm-up");

    const Timer window;
    for (;; ++k) {
      const Interval pass = bench->run_pass(k, runs);
      report.attempt(runs.size());
      const std::size_t entry = k % cycle;
      if (pass_reps[entry].empty()) {
        run_reps[entry].resize(runs.size());
        for (const SuiteRun& run : runs) exact.add(run.outcome);
      }
      pass_reps[entry].push_back(pass);
      pass_rate.push_back(static_cast<double>(runs.size()) / pass.seconds);
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const Interval run =
            serial ? bench->run_intervals()[i]
                   : Interval{runs[i].outcome.wall_seconds, pass.first, pass.end};
        run_reps[entry][i].push_back(run);
        run_wall_s.push_back(run.seconds);
        check_run(runs[i], report);
      }
      book.check(k, runs, report, "timed");
      const bool last = segment + 1 == segments;
      if (window.seconds() >= options.seconds / static_cast<double>(segments) &&
          (!last || k + 1 >= shape.min_passes)) {
        ++k;
        break;
      }
    }
  }

  // Untimed: a threaded suite must reproduce the serial rows exactly.
  if (!serial) {
    SuiteShape serial_shape = shape;
    serial_shape.threads = 1;
    SuiteBench reference(serial_shape);
    for (std::size_t e = 0; e < reference.cycle(); ++e) {
      reference.run_pass(e, runs);
      book.check(e, runs, report, "serial reference");
    }
  }

  // Scaled now that every sample is in. One cycle: on one thread the sum
  // of its runs' costs, on a pool its passes at their medians.
  std::vector<double> op_s;
  double cycle_s = 0.0;
  for (std::size_t e = 0; e < cycle; ++e) {
    if (pass_reps[e].empty()) continue;
    for (const std::vector<Interval>& reps : run_reps[e]) {
      op_s.push_back(scaled_median(reps));
      if (serial) cycle_s += op_s.back();
    }
    if (!serial) cycle_s += scaled_median(pass_reps[e]);
  }
  std::vector<double> setup_s;
  std::vector<double> wall_setup_s;
  for (const Interval& interval : setups) {
    setup_s.push_back(before_setup_s + scaled_seconds(interval));
    wall_setup_s.push_back(before_setup_s + interval.seconds);
  }

  report.note("setup_samples_s", join(setup_s));
  report.note("wall_setup_samples_s", join(wall_setup_s));
  report.note("pass_rates_per_s", join(pass_rate));
  report.add("setup_s", median(setup_s), "s");
  report.add("ops_per_s", static_cast<double>(op_s.size()) / cycle_s, "1/s");
  report.add("op_ms_p50", median(op_s) * 1e3, "ms");
  report.add("wall_setup_s", median(wall_setup_s), "s");
  report.add("host_slowdown", host_slowdown(), "ratio");
  // The wall-clock medians over every pass and run, under the names of
  // the workload's own operation: a grid pass is the grid, sleeper2048
  // cycles through one run per pass.
  if (cycle > 1) {
    report.add("run_s_p50", median(run_wall_s), "s");
    report.add("run_samples", static_cast<double>(run_wall_s.size()), "count");
  } else {
    report.add("runs_per_s", median(pass_rate), "1/s");
    report.add("runs_per_s_q1", quantile(pass_rate, 0.25), "1/s");
    report.add("runs_per_s_q3", quantile(pass_rate, 0.75), "1/s");
  }
  report.add("passes", static_cast<double>(pass_rate.size()), "count");
  report.add("distinct_ops", static_cast<double>(op_s.size()), "count");
  report.add("threads", static_cast<double>(shape.threads), "count");
  exact.report_to(report);
  report.set_fingerprint(book.fingerprint());
}

// ---- traced replay ----------------------------------------------------------

/// diameter_guesses of src/core/calculate_preferences.cpp (internal there).
std::vector<std::size_t> diameter_guesses(std::size_t n_objects,
                                          double sample_rate_c, double ln_n) {
  std::vector<std::size_t> guesses;
  guesses.push_back(0);
  const double saturation = sample_rate_c * ln_n;
  for (std::size_t d = 1; (std::size_t{1} << d) <= n_objects; ++d) {
    const std::size_t dd = std::size_t{1} << d;
    if (static_cast<double>(dd) > saturation) guesses.push_back(dd);
  }
  return guesses;
}

/// calculate_preferences replayed step by step, with a span around each
/// Fig. 2 step and probe counts taken at the same boundaries. It mirrors
/// src/core/calculate_preferences.cpp line for line; expect_same names the
/// first outcome field that drifts when the two part ways.
ProtocolResult traced_calculate_preferences(ProtocolEnv& env,
                                            const Params& params,
                                            std::uint64_t phase_key,
                                            SpanLog& log, LayerCounts& counts) {
  const std::size_t n = env.n_players();
  const std::size_t n_objects = env.n_objects();
  const double ln_n = ln_clamped(n);
  const std::size_t log2n = log2_ceil(n);
  if (static_cast<double>(params.budget) * static_cast<double>(log2n) >=
      params.easy_case_factor * static_cast<double>(n))
    throw ReplayError("the replay models the Fig. 2 pipeline, but this "
                      "scenario takes the easy case (budget * log2 n >= n)");

  ProtocolResult result;
  std::vector<std::uint64_t> before(n);
  for (PlayerId p = 0; p < n; ++p) before[p] = env.oracle.probes_by(p);

  std::vector<ObjectId> all_objects(n_objects);
  std::iota(all_objects.begin(), all_objects.end(), ObjectId{0});
  std::vector<PlayerId> all_players(n);
  std::iota(all_players.begin(), all_players.end(), PlayerId{0});

  const std::vector<std::size_t> guesses =
      diameter_guesses(n_objects, params.sample_rate_c, ln_n);
  std::vector<BitMatrix>& candidates = env.workspace().cp_candidates;
  if (candidates.size() < guesses.size()) candidates.resize(guesses.size());

  const std::size_t min_cluster = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(
             static_cast<double>(n) / static_cast<double>(params.budget) *
             (1.0 - params.cluster_slack))));
  WorkShareParams ws;
  ws.votes_per_object = std::max<std::size_t>(
      params.vote_min,
      static_cast<std::size_t>(params.vote_c * static_cast<double>(log2n)));

  for (std::size_t g = 0; g < guesses.size(); ++g) {
    const std::size_t D = guesses[g];
    const auto guess = static_cast<std::int64_t>(D);
    const std::uint64_t iter_key = mix_keys(phase_key, 0xd17e8ULL, g);
    IterationInfo info;
    info.diameter_guess = D;

    std::vector<ObjectId> sample;
    {
      ScopedSpan span(log, "core.sample", guess);
      if (D == 0) {
        sample = all_objects;
      } else {
        const double rate =
            std::min(1.0, params.sample_rate_c * ln_n / static_cast<double>(D));
        Rng srng = env.shared_rng(mix_keys(iter_key, 0x5a3ULL));
        for (ObjectId o = 0; o < n_objects; ++o)
          if (srng.chance(rate)) sample.push_back(o);
        if (sample.empty())
          sample.push_back(static_cast<ObjectId>(srng.below(n_objects)));
      }
    }
    info.sample_size = sample.size();

    SmallRadiusParams srp;
    srp.budget = params.budget;
    srp.diameter = ceil_size(params.sr_diameter_c * ln_n);
    srp.repeats = params.sr_repeats;
    srp.subset_scale = params.sr_subset_scale;
    srp.subset_exponent = params.sr_subset_exponent;
    srp.support_divisor = params.sr_support_divisor;
    srp.probes_per_pair = params.sr_probes_per_pair;
    srp.prefilter_probes = params.sr_prefilter_probes;
    srp.max_finalists = params.sr_max_finalists;
    srp.zr = params.zr;
    SmallRadiusResult sr;
    const std::uint64_t sr_before = env.oracle.total_probes();
    {
      ScopedSpan span(log, "protocols.small_radius", guess);
      sr = small_radius(all_players, sample, srp, env, mix_keys(iter_key, 1));
    }
    counts.small_radius_probes += env.oracle.total_probes() - sr_before;
    info.sr_candidate_overflow = sr.stats.candidate_overflow;

    BitMatrix& z = env.workspace().cp_z;
    {
      ScopedSpan span(log, "core.publish", guess);
      const std::uint64_t z_channel = mix_keys(iter_key, 0x9a9fULL);
      const ReportContext zctx{Phase::kClusterGraph, z_channel};
      z.reset(n, sample.size());
      for (PlayerId p = 0; p < n; ++p) {
        if (env.population.is_honest(p)) {
          z.row(p) = sr.outputs[p];
          continue;
        }
        Rng prng = env.local_rng(p, z_channel);
        z.row(p) = env.population.publication(p, sr.outputs[p], sample, zctx, prng);
      }
    }

    const auto tau = static_cast<std::size_t>(
        std::min(params.graph_tau_c * ln_n,
                 params.graph_tau_sample_frac * static_cast<double>(sample.size())));
    std::optional<NeighborGraph> graph;
    {
      ScopedSpan span(log, "protocols.graph_build", guess);
      graph.emplace(z, tau, GraphBackend::kAuto, env.policy);
    }
    for (PlayerId p = 0; p < n; ++p) counts.graph_degree_sum += graph->degree(p);

    Clustering clustering;
    {
      ScopedSpan span(log, "protocols.peel", guess);
      clustering = cluster_players(*graph, min_cluster);
    }
    info.clusters = clustering.clusters.size();
    info.min_cluster = clustering.min_cluster_size();
    info.leftovers = clustering.leftovers;
    info.orphans = clustering.orphans;

    const std::uint64_t vote_before = env.oracle.total_probes();
    {
      ScopedSpan span(log, "protocols.vote", guess);
      std::vector<BitVector> cluster_prediction(clustering.clusters.size());
      for (std::size_t c = 0; c < clustering.clusters.size(); ++c)
        cluster_prediction[c] = cluster_votes(
            clustering.clusters[c], env, mix_keys(iter_key, 0x707eULL, c), ws);
      candidates[g].reset(n, n_objects);
      env.par_for(0, n, [&](std::size_t p) {
        const std::uint32_t c = clustering.cluster_of[p];
        if (c != Clustering::kNoClusterAssigned)
          candidates[g].row(p) = cluster_prediction[c];
      });
    }
    counts.vote_probes += env.oracle.total_probes() - vote_before;
    result.iterations.push_back(info);
  }

  const std::size_t probes_per_pair = std::max<std::size_t>(
      4, static_cast<std::size_t>(params.rselect_c * static_cast<double>(log2n)));
  const std::uint64_t rselect_before = env.oracle.total_probes();
  {
    ScopedSpan span(log, "protocols.rselect");
    result.outputs.assign(n, BitVector(n_objects));
    env.par_for(0, n, [&](std::size_t p) {
      std::vector<ConstBitRow> cands;
      cands.reserve(guesses.size());
      for (std::size_t g = 0; g < guesses.size(); ++g)
        cands.push_back(candidates[g].row(p));
      const SelectOutcome sel =
          rselect(static_cast<PlayerId>(p), cands, all_objects, env,
                  mix_keys(phase_key, 0xfe1ec7ULL, p), probes_per_pair);
      result.outputs[p] = cands[sel.chosen].to_bitvector();
    });
  }
  counts.rselect_probes += env.oracle.total_probes() - rselect_before;

  result.probes_by_player.assign(n, 0);
  for (PlayerId p = 0; p < n; ++p) {
    const std::uint64_t delta = env.oracle.probes_by(p) - before[p];
    result.probes_by_player[p] = delta;
    result.total_probes += delta;
    result.max_probes = std::max(result.max_probes, delta);
  }
  return result;
}

/// run_scenario (src/sim/registry.cpp) for a calculate_preferences scenario
/// without OPT, one layer call at a time.
ExperimentOutcome traced_run(const Scenario& sc, const ExecPolicy& policy,
                             SpanLog& log, LayerCounts& counts) {
  WorkerScope worker(policy);
  const World world = [&] {
    ScopedSpan span(log, "model.world");
    return build_scenario_world(sc, policy);
  }();
  const Population pop = [&] {
    ScopedSpan span(log, "sim.population");
    return build_scenario_population(sc, world);
  }();
  ProbeOracle oracle(world.matrix);
  oracle.bind_policy(policy);
  // Held in an optional so its teardown, which frees every report and
  // vector the run posted, can be timed as board-layer work.
  std::optional<BulletinBoard> board(std::in_place);
  Params params = sc.params;
  params.budget = sc.budget;

  HonestBeacon beacon(mix_keys(sc.seed, 0xbeacULL));
  ProtocolEnv env(oracle, *board, pop, beacon, mix_keys(sc.seed, 0x10ca1ULL),
                  policy);
  const ProtocolResult result = traced_calculate_preferences(
      env, params, mix_keys(sc.seed, 0xca1cULL), log, counts);

  ExperimentOutcome outcome;
  {
    ScopedSpan span(log, "metrics.error");
    const std::vector<PlayerId> honest = pop.honest_players();
    outcome.honest_players = honest.size();
    outcome.error = error_stats(world.matrix, result.outputs, honest, policy);
    for (PlayerId p : honest)
      outcome.honest_max_probes =
          std::max(outcome.honest_max_probes, result.probes_by_player[p]);
  }
  outcome.planted_diameter = world.planted_diameter;
  outcome.total_probes = result.total_probes;
  outcome.max_probes = result.max_probes;
  outcome.iterations = result.iterations;
  outcome.easy_case = result.easy_case;
  outcome.board_reports = board->report_count();
  outcome.board_vectors = board->vector_count();
  counts.board_reports += outcome.board_reports;
  counts.board_vectors += outcome.board_vectors;
  {
    ScopedSpan span(log, "board.release");
    board.reset();
  }
  return outcome;
}

/// The replay covers what traced_run models; anything else would time a
/// program the library does not run.
void require_replayable(const SuiteBench& bench) {
  for (std::size_t k = 0; k < bench.cycle(); ++k) {
    for (const SuiteRun& run : bench.plan(k)) {
      const Scenario& sc = run.scenario;
      if (sc.algorithm != "calculate_preferences" || sc.compute_opt)
        throw ReplayError(run_label(run) +
                          ": the replay models calculate_preferences with "
                          "opt=0 only");
      if (WorkloadRegistry::instance().at(sc.workload).emit_metrics ||
          AdversaryRegistry::instance().at(sc.adversary).emit_metrics ||
          AlgorithmRegistry::instance().at(sc.algorithm).emit_metrics)
        throw ReplayError(run_label(run) +
                          ": the replay does not model entry metric hooks");
    }
  }
}

template <typename T>
std::string text_of(const T& v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

void expect_same(const ExperimentOutcome& lib, const ExperimentOutcome& rep,
                 const SuiteRun& run) {
  const auto same = [&](const std::string& field, const auto& a, const auto& b) {
    if (a != b)
      throw ReplayError("suite replay diverged from run_scenario at " +
                        run_label(run) + ": " + field + " library=" +
                        text_of(a) + " replay=" + text_of(b));
  };
  same("total_probes", lib.total_probes, rep.total_probes);
  same("max_probes", lib.max_probes, rep.max_probes);
  same("honest_max_probes", lib.honest_max_probes, rep.honest_max_probes);
  same("honest_players", lib.honest_players, rep.honest_players);
  same("max_err", lib.error.max_error, rep.error.max_error);
  same("mean_err", lib.error.mean_error, rep.error.mean_error);
  same("planted_diameter", lib.planted_diameter, rep.planted_diameter);
  same("board_reports", lib.board_reports, rep.board_reports);
  same("board_vectors", lib.board_vectors, rep.board_vectors);
  same("easy_case", lib.easy_case, rep.easy_case);
  same("iterations", lib.iterations.size(), rep.iterations.size());
  for (std::size_t g = 0; g < lib.iterations.size(); ++g) {
    const IterationInfo& a = lib.iterations[g];
    const IterationInfo& b = rep.iterations[g];
    const std::string at = "iteration " + std::to_string(g) + " ";
    same(at + "diameter_guess", a.diameter_guess, b.diameter_guess);
    same(at + "sample_size", a.sample_size, b.sample_size);
    same(at + "clusters", a.clusters, b.clusters);
    same(at + "min_cluster", a.min_cluster, b.min_cluster);
    same(at + "leftovers", a.leftovers, b.leftovers);
    same(at + "orphans", a.orphans, b.orphans);
    same(at + "sr_candidate_overflow", a.sr_candidate_overflow,
         b.sr_candidate_overflow);
  }
}

/// Replays pass k on the same execution shape SuiteRunner uses (serial, or
/// a pass-owned pool with one run per claim) and returns its wall time.
double replay_pass(const SuiteBench& bench, std::size_t k,
                   const std::vector<ExperimentOutcome>& reference,
                   std::uint64_t first_op, TraceStore& store,
                   LayerCounts& counts) {
  std::vector<SuiteRun> runs = bench.plan(k);
  std::ostringstream rows;
  std::mutex mutex;  // the sink and the counters, like SuiteRunner's emit lock
  const Timer timer;
  SinkConfig config;
  config.stream = &rows;
  JsonlSink sink(config);
  RecordStream stream(sink, bench.schema(), bench.columns());
  std::optional<ThreadPool> pool;
  ExecPolicy policy = ExecPolicy::serial();
  if (bench.threads() > 1) {
    pool.emplace(bench.threads());
    policy = ExecPolicy::pool(*pool);
  }
  policy.par_for(
      0, runs.size(),
      [&](std::size_t i) {
        SpanLog log(first_op + i);
        LayerCounts local;
        {
          ScopedSpan root(log, "sim.run");
          runs[i].outcome = traced_run(runs[i].scenario, policy, log, local);
          runs[i].attempts = 1;
          ScopedSpan span(log, "sim.sink");
          std::lock_guard lock(mutex);
          stream.write(make_run_record(runs[i], bench.schema()));
        }
        expect_same(reference[i], runs[i].outcome, runs[i]);
        store.merge(log);
        std::lock_guard lock(mutex);
        counts += local;
      },
      /*grain=*/1);
  stream.finish();
  return timer.seconds();
}

void traced_suite(const SuiteShape& shape, const Options& options,
                  Report& report) {
  SuiteBench bench(shape);
  std::vector<SuiteRun> runs;
  bench.run_pass(0, runs);  // warm-up
  for (const SuiteRun& run : runs) check_run(run, report);
  require_replayable(bench);

  // Untraced half: the library's own runs, kept as the replay's reference.
  const Timer window;
  std::vector<std::vector<ExperimentOutcome>> reference;
  double untraced_s = 0.0;
  double busy_s = 0.0;
  for (std::size_t k = 0;; ++k) {
    untraced_s += bench.run_pass(k, runs).seconds;
    report.attempt(runs.size());
    reference.emplace_back();
    for (const SuiteRun& run : runs) {
      check_run(run, report);
      busy_s += run.outcome.wall_seconds;
      reference.back().push_back(run.outcome);
    }
    if (window.seconds() >= options.seconds / 2) break;
  }

  // Traced half: the same passes, replayed.
  TraceStore store;
  LayerCounts counts;
  double traced_s = 0.0;
  std::size_t ops = 0;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    traced_s += replay_pass(bench, k, reference[k], ops, store, counts);
    ops += reference[k].size();
    report.attempt(reference[k].size());
  }

  store.report_layers(report, ops);
  counts.report_to(report, ops);
  report.add("suite.busy_frac",
             busy_s / (static_cast<double>(bench.threads()) * untraced_s),
             "frac");
  report.add("trace.overhead_frac", 1.0 - untraced_s / traced_s, "frac");
  report.add("threads", static_cast<double>(bench.threads()), "count");
  if (!options.trace_out.empty()) store.write_chrome(options.trace_out);
}

}  // namespace

bool is_suite_workload(std::string_view name) {
  return name == "grid18" || name == "grid18_t4" || name == "sleeper2048";
}

void run_suite_workload(const Options& options, const Timer& since_main,
                        Report& report) {
  const SuiteShape shape = suite_shape(options.workload, options.seed, options.smoke);
  if (options.trace)
    traced_suite(shape, options, report);
  else
    timed_suite(shape, options, since_main, report);
}

}  // namespace colscore::bench
