#include "src/sim/suite.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <sstream>

#include "src/common/exec_policy.hpp"
#include "src/common/strict_parse.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/common/workspace.hpp"
#include "src/sim/fault.hpp"

namespace colscore {

namespace {

/// First key of every derived per-run seed (see SuiteOptions::derive_seeds).
/// Changing it changes every derived seed, golden and artifact.
constexpr std::uint64_t kSeedSalt = 0x5c3a01u;

}  // namespace

// ---- grid sweeps ------------------------------------------------------------

std::vector<GridAxis> parse_grid(std::string_view text) {
  std::vector<GridAxis> axes;
  std::istringstream in{std::string(text)};
  std::string token;
  while (in >> token) {
    if (token == "x" || token == "X") continue;  // axis separator
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
      throw ScenarioError("malformed grid axis '" + token +
                          "'; expected key=v1,v2,...");
    GridAxis axis;
    axis.key = token.substr(0, eq);
    for (const GridAxis& seen : axes)
      if (seen.key == axis.key)
        throw ScenarioError("grid axis '" + axis.key + "' appears twice");
    std::stringstream values(token.substr(eq + 1));
    std::string value;
    while (std::getline(values, value, ','))
      if (!value.empty()) axis.values.push_back(value);
    if (axis.values.empty())
      throw ScenarioError("grid axis '" + axis.key + "' has no values");
    axes.push_back(std::move(axis));
  }
  return axes;
}

std::vector<ScenarioSpec> expand_grid(const ScenarioSpec& base,
                                      const std::vector<GridAxis>& axes) {
  std::vector<ScenarioSpec> specs{base};
  for (const GridAxis& axis : axes) {
    std::vector<ScenarioSpec> next;
    next.reserve(specs.size() * axis.values.size());
    for (const ScenarioSpec& spec : specs)
      for (const std::string& value : axis.values) {
        ScenarioSpec expanded = spec;
        expanded.set(axis.key, value);
        next.push_back(std::move(expanded));
      }
    specs = std::move(next);
  }
  return specs;
}

// ---- the runner -------------------------------------------------------------

SuiteRunner::SuiteRunner(SuiteOptions options) : options_(std::move(options)) {}

std::size_t take_reps_axis(std::vector<GridAxis>& axes) {
  for (auto it = axes.begin(); it != axes.end(); ++it) {
    if (it->key != "reps") continue;
    if (it->values.size() != 1)
      throw ScenarioError(
          "grid axis 'reps' takes a single replication count (to sweep the "
          "robust algorithm's outer repetitions, set them on the base spec: "
          "--set reps=R)");
    const std::string& value = it->values.front();
    const std::optional<std::uint64_t> reps = parse_strict_u64(value);
    if (!reps || *reps == 0)
      throw ScenarioError("grid axis 'reps=" + value +
                          "': expected a positive integer");
    axes.erase(it);
    return static_cast<std::size_t>(*reps);
  }
  return 1;
}

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kTimeout: return "timeout";
    case RunStatus::kSkipped: return "skipped";
  }
  return "?";
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t total,
                                                std::size_t index,
                                                std::size_t count) {
  if (count == 0 || index >= count)
    throw ScenarioError("shard " + std::to_string(index) + "/" +
                        std::to_string(count) +
                        ": the shard index must be below the shard count");
  return {total * index / count, total * (index + 1) / count};
}

std::pair<std::size_t, std::size_t> parse_shard(std::string_view text) {
  const auto malformed = [&]() -> ScenarioError {
    return ScenarioError("malformed shard '" + std::string(text) +
                         "'; expected I/K with 0 <= I < K (e.g. 0/2)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= text.size())
    throw malformed();
  const auto parse_part = [&](std::string_view part) {
    const std::optional<std::uint64_t> value =
        parse_strict_u64(std::string(part));
    if (!value) throw malformed();
    return static_cast<std::size_t>(*value);
  };
  const std::size_t index = parse_part(text.substr(0, slash));
  const std::size_t count = parse_part(text.substr(slash + 1));
  if (count == 0 || index >= count) throw malformed();
  return {index, count};
}

std::size_t suite_failure_count(std::span<const SuiteRun> runs) {
  std::size_t failures = 0;
  for (const SuiteRun& run : runs)
    if (run.status == RunStatus::kFailed || run.status == RunStatus::kTimeout)
      ++failures;
  return failures;
}

std::vector<SuiteRun> SuiteRunner::plan(
    const std::vector<ScenarioSpec>& specs) const {
  const std::size_t reps = std::max<std::size_t>(1, options_.reps);
  if (reps > 1 && !options_.derive_seeds)
    throw ScenarioError("reps > 1 requires derived seeds (the k replicas "
                        "would otherwise be identical runs)");
  // Resolve everything first: name/key errors surface before any run starts,
  // and seed derivation depends only on the (deterministic) expansion index.
  // Reps vary fastest, so a cell's replicas stream out adjacent to each
  // other; the flat index feeds seed derivation, which keeps every
  // (cell, rep) seed distinct and schedule-independent — and, because the
  // index is global, identical across shards and resumed re-runs.
  std::vector<SuiteRun> runs(specs.size() * reps);
  for (std::size_t si = 0; si < specs.size(); ++si) {
    const Scenario resolved = Scenario::resolve(specs[si]);
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t i = si * reps + r;
      runs[i].index = i;
      runs[i].rep = r;
      runs[i].spec = specs[si];
      runs[i].scenario = resolved;
      if (options_.derive_seeds)
        runs[i].scenario.seed =
            mix_keys(kSeedSalt, i, runs[i].scenario.seed);
    }
  }
  return runs;
}

void SuiteRunner::execute(std::vector<SuiteRun>& runs) const {
  // Shard selection: only [lo, hi) executes and streams. Out-of-shard runs
  // are another process's rows; marking them kSkipped (rather than leaving
  // a default kOk with no outcome) keeps the returned vector honest.
  const auto [lo, hi] =
      shard_range(runs.size(), options_.shard_index, options_.shard_count);
  for (std::size_t i = 0; i < lo; ++i) runs[i].status = RunStatus::kSkipped;
  for (std::size_t i = hi; i < runs.size(); ++i)
    runs[i].status = RunStatus::kSkipped;

  // Ordered streaming: a completed run is emitted once every earlier run has
  // been emitted, so callback order never depends on scheduling. If the
  // callback itself throws (a dying sink), emission goes dead: later
  // completions still mark themselves done but nothing is re-delivered —
  // without the guard, the next completion would re-invoke on_result for
  // runs at next_emit and duplicate rows in the sink.
  std::mutex emit_mutex;
  std::vector<bool> done(runs.size(), false);
  std::size_t next_emit = lo;
  bool emit_dead = false;
  auto complete = [&](std::size_t i) {
    if (!options_.on_result) return;
    std::lock_guard lock(emit_mutex);
    done[i] = true;
    if (emit_dead) return;
    while (next_emit < hi && done[next_emit]) {
      try {
        options_.on_result(runs[next_emit]);
      } catch (...) {
        emit_dead = true;
        throw;  // propagates out of the body; the pool cancels the rest
      }
      ++next_emit;
    }
  };

  // One policy serves the suite loop and every nested protocol loop of its
  // runs: run_scenario executes on a suite worker already bound to the
  // policy's arena, so its WorkerScope reuses the worker's slot and the
  // protocol's inner par_fors claim chunks from the same pool (the
  // chunk-claiming loop self-completes, so nesting cannot deadlock).
  std::optional<ThreadPool> local_pool;
  ExecPolicy policy = ExecPolicy::serial();
  if (options_.policy != nullptr) {
    policy = *options_.policy;
  } else if (options_.threads != 1) {
    local_pool.emplace(options_.threads);  // 0 => hardware_concurrency()
    policy = ExecPolicy::pool(*local_pool);
  }
  // A serial sweep of the runner's own scratches in the calling thread's
  // workspace. It releases those buffers when the sweep ends, however it
  // ends, as a pool policy's arena dies with its pool: a finished sweep
  // keeps no high-water scratch, and its memory peak does not depend on
  // the sweeps that ran before it.
  struct ReleaseOnExit {
    RunWorkspace* workspace;
    ~ReleaseOnExit() {
      if (workspace != nullptr) workspace->release();
    }
  };
  const bool own_serial = options_.policy == nullptr && options_.threads == 1;
  const ReleaseOnExit release{own_serial ? &policy.workspace() : nullptr};

  auto body = [&](std::size_t i) {
    SuiteRun& run = runs[i];
    if (run.status == RunStatus::kSkipped) {  // resume: already complete
      complete(i);
      return;
    }
    // Run isolation: each attempt is try/caught and timed; a throw or a
    // blown wall-clock budget fails the attempt, backs off exponentially,
    // and retries with the identical scenario/seed. Exhausted retries leave
    // a kFailed/kTimeout run that still streams — one bad cell no longer
    // aborts a thousand-run sweep.
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > 0)
        sleep_for_seconds(options_.backoff_s *
                          static_cast<double>(1ULL << std::min<std::size_t>(
                                                  attempt - 1, 20)));
      run.attempts = attempt + 1;
      Timer timer;
      try {
        if (options_.faults != nullptr)
          options_.faults->before_attempt(i, attempt);
        run.outcome = run_scenario(run.scenario, policy);
        run.status = RunStatus::kOk;
        run.error.clear();
      } catch (const std::exception& e) {
        run.status = RunStatus::kFailed;
        run.error = e.what();
        run.outcome = ExperimentOutcome{};
      } catch (...) {
        run.status = RunStatus::kFailed;
        run.error = "unknown error";
        run.outcome = ExperimentOutcome{};
      }
      if (run.status == RunStatus::kOk && options_.timeout_s > 0 &&
          timer.seconds() > options_.timeout_s) {
        // Post-hoc classification: the work finished but blew its budget;
        // discard the outcome so a timeout row never smuggles in results.
        run.status = RunStatus::kTimeout;
        run.error = "run exceeded timeout_s=" +
                    std::to_string(options_.timeout_s);
        run.outcome = ExperimentOutcome{};
      }
      if (run.status == RunStatus::kOk || attempt >= options_.retries) break;
    }
    complete(i);
  };

  policy.par_for(lo, hi, body, /*grain=*/1);
}

std::vector<SuiteRun> SuiteRunner::run(const std::vector<ScenarioSpec>& specs) const {
  std::vector<SuiteRun> runs = plan(specs);
  execute(runs);
  return runs;
}

std::vector<SuiteRun> SuiteRunner::run_grid(const ScenarioSpec& base,
                                            std::string_view grid) const {
  std::vector<GridAxis> axes = parse_grid(grid);
  const std::size_t grid_reps = take_reps_axis(axes);
  if (grid_reps == 1) return run(expand_grid(base, axes));
  SuiteOptions options = options_;
  options.reps = grid_reps;
  return SuiteRunner(std::move(options)).run(expand_grid(base, axes));
}

// ---- rows -------------------------------------------------------------------

std::vector<std::string> suite_row_cells(const SuiteRun& run, bool include_wall,
                                         bool include_rep) {
  const MetricSchema schema = scenario_metric_schema(run.scenario);
  const RunRecord record = make_run_record(run, schema);
  std::vector<std::string> cells;
  for (const std::string& key : default_columns(include_wall, include_rep))
    cells.push_back(record.cell_text(schema.index_of(key)));
  return cells;
}

}  // namespace colscore
