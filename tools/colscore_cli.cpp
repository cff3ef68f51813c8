// colscore_cli — run any registered scenario (or grid of scenarios) from the
// command line. Workloads, adversaries, and algorithms are looked up in the
// scenario registries, so anything registered — including entries added by
// downstream code — is runnable here without touching this file.
//
// Examples:
//   colscore_cli --list-algorithms
//   colscore_cli --n 512 --budget 8 --diameter 16
//   colscore_cli --workload chained --algorithm sample_and_share
//   colscore_cli --adversary hijacker --dishonest 10 --algorithm robust
//   colscore_cli --scenario "workload=planted n=512 dishonest=20"
//   colscore_cli --grid "n=256,512 x adversary=hijacker,sleeper" --csv
//   colscore_cli --grid "n=256,512 x reps=5" --sink sqlite --out sweep.sqlite
//   colscore_cli --suite examples/suites/smoke.json
//
// Machine-readable output goes through a registered result sink (--sink
// csv|jsonl|sqlite, --list-sinks; --csv is shorthand for --sink csv --wall),
// streamed in grid order as runs complete; otherwise a human-readable
// report. --suite runs a checked-in JSON suite file (base spec + grids +
// reps + sink); the sink and runner flags override the file's choices. Every
// sink-backed run, a --suite file or a sweep spelled by flags, is a
// SuiteFile handed to run_suite_file (src/sim/suitefile.hpp).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/strict_parse.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/registry.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"
#include "src/sim/suitefile.hpp"

namespace colscore {
namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "scenario (names come from the registries; see --list-*):\n"
      "  --workload W        e.g. planted|identical|lower_bound|chained|uniform|two_blocks\n"
      "  --algorithm A       e.g. calculate_preferences|robust|probe_all|random_guess|\n"
      "                      oracle_clusters|sample_and_share (aliases: calc, oracle, baseline)\n"
      "  --adversary X       e.g. none|random_liar|inverter|constant_one|targeted_bias|\n"
      "                      hijacker|sleeper|strange_colluder\n"
      "  --scenario SPEC     full spec string, e.g. \"workload=chained n=512 dishonest=20\"\n"
      "  --set key=value     any scenario override (repeatable)\n"
      "knob shorthands (sugar for --set):\n"
      "  --n N               players == objects (default 256)\n"
      "  --budget B          reference probe budget (default 8)\n"
      "  --diameter D        planted cluster diameter / chain step (default 16)\n"
      "  --clusters K        planted cluster count (default: budget)\n"
      "  --seed S            RNG seed (default 1)\n"
      "  --dishonest M       number of dishonest players (default 0)\n"
      "  --reps R            robust outer repetitions (default 3)\n"
      "  --paper-params      use the paper's literal constants\n"
      "  --no-opt            skip the O(n^2) empirical OPT computation\n"
      "sweeps:\n"
      "  --grid AXES         cartesian sweep, e.g. \"n=256,512 x adversary=hijacker,sleeper\"\n"
      "                      a reps=K axis replicates every cell K times with\n"
      "                      distinct derived seeds and a rep column\n"
      "  --suite FILE        run a JSON suite file (base + grids + reps + sink);\n"
      "                      --sink/--out/--threads override the file's choices\n"
      "  --threads T         suite worker threads (default: hardware; 1 = serial)\n"
      "  --raw-seeds         do not derive per-run seeds from the grid index\n"
      "fault tolerance (a failed run becomes a status/error row; exit code 1):\n"
      "  --retries N         extra attempts per failed/timed-out run (default 0)\n"
      "  --timeout-s X       per-run wall-clock budget in seconds (0 = off);\n"
      "                      classification is post-hoc, the run is not preempted\n"
      "  --backoff-s X       retry k sleeps X*2^(k-1) seconds first (default 0.05)\n"
      "  --faults SPEC       deterministic fault injection, e.g. \"throw@3,delay@7=1x2\"\n"
      "  --shard I/K         run only shard I of K (contiguous slice of the flat\n"
      "                      run-index space; per-run seeds are unchanged, so K\n"
      "                      shard outputs concatenate to the unsharded rows)\n"
      "  --resume PATH       re-run only the missing/failed rows of a prior artifact\n"
      "                      (PATH or PATH.tmp is read; merged output is rewritten)\n"
      "output:\n"
      "  --sink NAME         result sink for machine-readable rows (see --list-sinks)\n"
      "  --out PATH          sink destination (default: stdout; sqlite requires a path)\n"
      "  --wall              include the wall_s column (off by default: byte-reproducible)\n"
      "  --csv               shorthand for --sink csv --wall (the historical output)\n"
      "  --columns a,b,c     select output columns from the metric schema\n"
      "                      (see --list-columns; default: the historical column set)\n"
      "  --summary STAT      one aggregated row per grid cell over its reps\n"
      "                      (mean|min|max of every numeric column)\n"
      "  --list-workloads    print registered workloads and exit\n"
      "  --list-adversaries  print registered adversaries and exit\n"
      "  --list-algorithms   print registered algorithms and exit\n"
      "  --list-sinks        print registered result sinks and exit\n"
      "  --list-columns      print the metric schema for the selected scenario\n"
      "                      (key, type, origin, description) and exit\n",
      argv0);
  std::exit(2);
}

void print_registry(const char* kind,
                    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::printf("%s:\n", kind);
  std::size_t width = 0;
  for (const auto& [name, description] : entries)
    width = std::max(width, name.size());
  for (const auto& [name, description] : entries)
    std::printf("  %-*s  %s\n", static_cast<int>(width), name.c_str(),
                description.c_str());
}

void print_human(const SuiteRun& run, bool show_rep) {
  const Scenario& sc = run.scenario;
  const ExperimentOutcome& out = run.outcome;
  if (show_rep) std::printf("[rep %zu] ", run.rep);
  if (run.status != RunStatus::kOk) {
    std::printf(
        "%s/%s/%s n=%zu B=%zu D=%zu dishonest=%zu seed=%llu\n"
        "  status=%s attempts=%zu error: %s\n",
        sc.workload.c_str(), sc.algorithm.c_str(), sc.adversary.c_str(), sc.n,
        sc.budget, sc.diameter, sc.dishonest,
        static_cast<unsigned long long>(sc.seed), run_status_name(run.status),
        run.attempts, run.error.c_str());
    return;
  }
  std::printf(
      "%s/%s/%s n=%zu B=%zu D=%zu dishonest=%zu seed=%llu\n"
      "  max_err=%zu mean_err=%.2f max_probes=%llu err/opt=%.2f wall=%.2fs\n",
      sc.workload.c_str(), sc.algorithm.c_str(), sc.adversary.c_str(), sc.n,
      sc.budget, sc.diameter, sc.dishonest,
      static_cast<unsigned long long>(sc.seed), out.error.max_error,
      out.error.mean_error, static_cast<unsigned long long>(out.max_probes),
      out.approx_ratio, out.wall_seconds);
}

/// Exit status for a finished sweep: 0 when every run completed, 1 with a
/// stderr summary when any run exhausted its retries.
int sweep_exit_code(const std::vector<SuiteRun>& runs) {
  const std::size_t failures = suite_failure_count(runs);
  if (failures == 0) return 0;
  std::fprintf(stderr,
               "colscore_cli: %zu of %zu runs failed (status/error columns "
               "name them); re-run with --resume to retry just those\n",
               failures, runs.size());
  return 1;
}

int run(int argc, char** argv) {
  ScenarioSpec spec;
  std::string grid;
  std::string suite_path;
  std::optional<std::string> sink_name;
  std::optional<std::string> out_path;
  std::optional<std::string> columns_flag;
  std::optional<std::string> resume_flag;
  SummaryStat summary = SummaryStat::kNone;
  bool csv = false;
  bool wall = false;
  bool raw_seeds = false;
  bool grid_requested = false;
  bool spec_touched = false;
  bool list_columns = false;

  // Runner flags (threads, retry policy, faults, shard) override the suite
  // the other flags select, a --suite file's own settings included. That
  // file loads only after every flag has been read, so each runner flag
  // queues its write to the one SuiteFile field it sets.
  std::vector<std::function<void(SuiteFile&)>> runner_flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    auto set_override = [&](const char* key) {
      spec_touched = true;
      spec.set(key, next());
    };
    auto next_size = [&]() -> std::size_t {
      const std::optional<std::uint64_t> value = parse_strict_u64(next());
      if (!value) usage(argv[0]);
      return static_cast<std::size_t>(*value);
    };
    auto next_seconds = [&]() -> double {
      const std::optional<double> value = parse_strict_f64(next());
      if (!value || *value < 0) usage(argv[0]);
      return *value;
    };

    if (arg == "--workload") { spec_touched = true; spec.workload = next(); }
    else if (arg == "--algorithm") { spec_touched = true; spec.algorithm = next(); }
    else if (arg == "--adversary") { spec_touched = true; spec.adversary = next(); }
    else if (arg == "--scenario") {
      spec_touched = true;
      // Apply token by token (not via ScenarioSpec::parse) so names the
      // string does not mention keep whatever earlier flags set them to.
      std::istringstream tokens{next()};
      std::string token;
      while (tokens >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
          throw ScenarioError("malformed scenario token '" + token +
                              "'; expected key=value");
        spec.set(token.substr(0, eq), token.substr(eq + 1));
      }
    } else if (arg == "--set") {
      spec_touched = true;
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) usage(argv[0]);
      spec.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (arg == "--n") set_override("n");
    else if (arg == "--budget") set_override("budget");
    else if (arg == "--diameter") set_override("diameter");
    else if (arg == "--clusters") set_override("clusters");
    else if (arg == "--seed") set_override("seed");
    else if (arg == "--dishonest") set_override("dishonest");
    else if (arg == "--reps") set_override("reps");
    else if (arg == "--paper-params") { spec_touched = true; spec.set("paper_params", "1"); }
    else if (arg == "--no-opt") { spec_touched = true; spec.set("opt", "0"); }
    else if (arg == "--grid") { grid = next(); grid_requested = true; }
    else if (arg == "--suite") suite_path = next();
    else if (arg == "--threads") {
      const std::size_t threads = next_size();
      if (threads > ThreadPool::kMaxThreads)
        throw ScenarioError("--threads must be at most " +
                            std::to_string(ThreadPool::kMaxThreads) + " (got " +
                            std::to_string(threads) + ")");
      runner_flags.push_back(
          [threads](SuiteFile& f) { f.options.threads = threads; });
    } else if (arg == "--retries") {
      runner_flags.push_back(
          [n = next_size()](SuiteFile& f) { f.options.retries = n; });
    } else if (arg == "--timeout-s") {
      runner_flags.push_back(
          [s = next_seconds()](SuiteFile& f) { f.options.timeout_s = s; });
    } else if (arg == "--backoff-s") {
      runner_flags.push_back(
          [s = next_seconds()](SuiteFile& f) { f.options.backoff_s = s; });
    } else if (arg == "--faults") {
      runner_flags.push_back(
          [text = next()](SuiteFile& f) { f.faults = text; });
    } else if (arg == "--shard") {
      runner_flags.push_back([shard = parse_shard(next())](SuiteFile& f) {
        f.options.shard_index = shard.first;
        f.options.shard_count = shard.second;
      });
    } else if (arg == "--resume") resume_flag = next();
    else if (arg == "--raw-seeds") raw_seeds = true;
    else if (arg == "--csv") csv = true;
    else if (arg == "--wall") wall = true;
    else if (arg == "--sink") sink_name = next();
    else if (arg == "--out") out_path = next();
    else if (arg == "--columns") columns_flag = next();
    else if (arg == "--summary") summary = parse_summary_stat(next());
    else if (arg == "--list-columns") list_columns = true;
    else if (arg == "--list-workloads") {
      print_registry("workloads", WorkloadRegistry::instance().descriptions());
      return 0;
    } else if (arg == "--list-adversaries") {
      print_registry("adversaries", AdversaryRegistry::instance().descriptions());
      return 0;
    } else if (arg == "--list-algorithms") {
      print_registry("algorithms", AlgorithmRegistry::instance().descriptions());
      return 0;
    } else if (arg == "--list-sinks") {
      print_registry("sinks", SinkRegistry::instance().descriptions());
      return 0;
    } else {
      usage(argv[0]);
    }
  }

  // ---- the suite: a --suite file, or the one the flags spell -----------------
  SuiteFile file;
  if (!suite_path.empty()) {
    // A suite file is the reviewable artifact; flags silently fighting its
    // contents would defeat the point, so anything that defines the
    // experiment or the row shape is rejected rather than merged or
    // dropped. The sink, its destination, and the runner flags are
    // invocation choices, not experiment definition, and stay overridable.
    if (spec_touched || grid_requested)
      throw ScenarioError(
          "--suite cannot be combined with scenario or grid flags; edit the "
          "suite file (or spell the sweep with --grid)");
    if (!list_columns &&
        (csv || wall || raw_seeds || columns_flag.has_value() ||
         summary != SummaryStat::kNone))
      throw ScenarioError(
          "--suite cannot be combined with --csv/--wall/--raw-seeds/"
          "--columns/--summary; set the suite file's \"sink\", \"wall\", "
          "\"derive_seeds\", \"columns\", or \"summary\" keys (or override "
          "the sink alone with --sink)");
    file = load_suite_file(suite_path);
  } else {
    // A `reps=K` grid axis is a suite-level replication count, not a
    // scenario override: it becomes the suite's reps, so the output grows
    // a rep column exactly when replication is in play.
    std::vector<GridAxis> axes = parse_grid(grid);
    file.options.reps = take_reps_axis(axes);
    file.base = spec;
    file.grids.push_back(std::move(axes));
  }

  // ---- schema listing --------------------------------------------------------
  // Handled after the flag loop (unlike the registry listings) so the schema
  // reflects the scenarios the other flags select — entry-declared metrics
  // appear for every workload/adversary/algorithm in play, including ones a
  // grid axis or a suite file sweeps in.
  if (list_columns) {
    const MetricSchema schema = suite_metric_schema(file.expand());
    std::printf("columns:\n");
    std::size_t key_width = 0;
    std::size_t origin_width = 0;
    for (const MetricSpec& s : schema.specs()) {
      key_width = std::max(key_width, s.key.size());
      origin_width = std::max(origin_width, s.origin.size());
    }
    for (const MetricSpec& s : schema.specs())
      std::printf("  %-*s  %-6s  %-*s  %s\n", static_cast<int>(key_width),
                  s.key.c_str(), metric_type_name(s.type),
                  static_cast<int>(origin_width), s.origin.c_str(),
                  s.description.c_str());
    return 0;
  }

  if (suite_path.empty()) {
    // Single runs keep their literal seed; grids derive per-cell seeds.
    file.options.derive_seeds = grid_requested && !raw_seeds;
    // --csv is the historical shorthand: CSV rows with the wall column. Any
    // other machine output goes through a registered sink; --out, --columns,
    // or --summary alone imply the csv sink.
    if (csv) {
      if (!sink_name.has_value()) sink_name = "csv";
      wall = true;
    } else if (!sink_name.has_value() &&
               (out_path.has_value() || columns_flag.has_value() ||
                summary != SummaryStat::kNone)) {
      sink_name = "csv";
    }
    file.include_wall = wall;
    if (columns_flag.has_value())
      file.columns = parse_column_list(*columns_flag);
    file.summary = summary;
  }
  if (sink_name.has_value()) file.sink = *sink_name;
  if (out_path.has_value()) file.output = *out_path;
  for (const auto& write : runner_flags) write(file);

  // Every machine-readable run, grid or suite file, streams through the
  // suite-file runner (schema, column selection, resume, sink faults).
  if (!suite_path.empty() || sink_name.has_value()) {
    SuiteFileOverrides overrides;
    overrides.resume = resume_flag;
    return sweep_exit_code(run_suite_file(file, overrides));
  }

  // ---- human-readable report -------------------------------------------------
  const FaultPlan faults = FaultPlan::parse(file.faults);
  SuiteOptions options = file.options;
  options.faults = faults.empty() ? nullptr : &faults;
  const bool show_rep = options.reps > 1;
  options.on_result = [&](const SuiteRun& run) { print_human(run, show_rep); };
  const SuiteRunner runner(options);
  std::vector<SuiteRun> runs = runner.plan(file.expand());
  if (resume_flag.has_value())
    throw ScenarioError(
        "--resume works on a sink artifact; pick the sink it was written "
        "with (--sink/--csv) and the destination (--out)");
  runner.execute(runs);
  return sweep_exit_code(runs);
}

}  // namespace
}  // namespace colscore

int main(int argc, char** argv) {
  try {
    return colscore::run(argc, argv);
  } catch (const colscore::ScenarioError& e) {
    std::fprintf(stderr, "colscore_cli: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // A sink failure (real or injected) aborts the sweep mid-stream; the
    // durable partial artifact (PATH.tmp) survives for --resume.
    std::fprintf(stderr, "colscore_cli: aborted: %s\n", e.what());
    return 2;
  }
}
