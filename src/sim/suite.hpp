// SuiteRunner: grid expansion + parallel, deterministic scenario execution.
//
// A grid like "n=256,512 x adversary=hijacker,sleeper" expands (cartesian
// product, last axis fastest) into a list of ScenarioSpecs over a base spec.
// The runner resolves every spec up front, derives a per-run seed from the
// run *index* (mix_keys-style — never from thread identity or completion
// order), and executes the runs serially or on a pool it owns for the
// sweep. Results stream through an optional callback in run-index order, so
// a parallel suite produces output byte-identical to a serial one. Every
// thread of a sweep scratches in its own RunWorkspace, and none keeps that
// scratch once the sweep ends.
//
// Each planned run executes once. Every random draw it makes derives from
// its seed, so running it again would throw again: a throw becomes a failed
// row (status + error) and the sweep goes on. Re-running failed rows is
// resume's job (src/sim/resume.hpp), after whatever made them fail is fixed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/registry.hpp"

namespace colscore {

class FaultPlan;  // fault.hpp

// ---- grid sweeps ------------------------------------------------------------

/// One sweep axis: an override key (or workload/adversary/algorithm) and the
/// values it takes.
struct GridAxis {
  std::string key;
  std::vector<std::string> values;

  bool operator==(const GridAxis&) const = default;
};

/// Parses "n=256,512 x adversary=hijacker,sleeper" — whitespace-separated
/// `key=v1,v2,...` tokens, optionally separated by a literal `x`. Throws
/// ScenarioError on malformed tokens, empty value lists, or repeated keys.
std::vector<GridAxis> parse_grid(std::string_view text);

/// Cartesian product of the axes over `base` (later axes vary fastest).
/// An empty axis list yields just `base`.
std::vector<ScenarioSpec> expand_grid(const ScenarioSpec& base,
                                      const std::vector<GridAxis>& axes);

/// Removes a `reps=K` replication axis from `axes` if present and returns K
/// (1 when absent). `reps` in a grid is a suite-level axis — every expanded
/// cell runs K times with distinct mix_keys-derived seeds and rep ids
/// 0..K-1 — not a scenario override (the robust algorithm's outer
/// repetitions stay reachable as a base-spec override: --reps / --set
/// reps=R). Throws ScenarioError unless K is a single positive integer.
std::size_t take_reps_axis(std::vector<GridAxis>& axes);

// ---- the runner -------------------------------------------------------------

/// How a run ended. kOk rows carry the full outcome; kFailed rows carry only
/// identity columns plus the error text (graceful degradation — the suite
/// keeps going and the exit path reports the failure count); kSkipped marks
/// runs this invocation never executed (outside the shard, or already
/// complete in a resumed artifact).
enum class RunStatus { kOk, kFailed, kSkipped };

/// "ok", "failed", "skipped" — the status column's cell text.
const char* run_status_name(RunStatus status);

struct SuiteRun {
  std::size_t index = 0;   // position in the expanded run list (rep-fastest)
  std::size_t rep = 0;     // replication id, 0..reps-1
  ScenarioSpec spec;       // as expanded (before seed derivation)
  Scenario scenario;       // resolved config the run actually executed
  ExperimentOutcome outcome;
  RunStatus status = RunStatus::kOk;
  /// What a kFailed run threw (empty otherwise). Failure rows are for
  /// triage and resume, not goldens.
  std::string error;
  /// 1 when the run executed, 0 when it never ran.
  std::size_t attempts = 0;
};

struct SuiteOptions {
  /// Worker threads for the suite loop and every run under it. 0 = a
  /// suite-owned pool of one thread per hardware thread; 1 = fully serial
  /// in the calling thread; N = a suite-owned pool of N threads. Each
  /// runner builds its own pool, so runners driven concurrently share no
  /// thread and no scratch.
  std::size_t threads = 0;
  /// Multi-seed replication: every spec expands into `reps` runs (rep ids
  /// vary fastest) whose seeds derive from the distinct flat run indices.
  /// Grid sweeps set this with a `reps=K` axis. Requires derive_seeds —
  /// with raw seeds the k replicas would be identical runs.
  std::size_t reps = 1;
  /// Per-run seeds are mix_keys(a fixed salt, index, spec seed):
  /// deterministic, schedule-independent, and distinct across grid cells
  /// even when the cells' specs share a seed; a different base seed moves
  /// every derived seed. Set derive_seeds=false to run each spec's seed
  /// untouched (single runs, reproduction of a specific cell).
  bool derive_seeds = true;
  /// Invoked once per completed run, always in run-index order (a run's
  /// callback fires as soon as it and every earlier run have finished).
  /// Runs pre-marked kSkipped (resume) also flow through, in order, so the
  /// caller can substitute the prior artifact's row; runs outside the shard
  /// never do. If the callback throws, the suite aborts (no further claims,
  /// no re-delivery of already-streamed runs) and the exception propagates.
  std::function<void(const SuiteRun&)> on_result;

  /// Shard shard_index of shard_count: only the contiguous index block
  /// shard_range(total, i, k) executes and streams; everything else is
  /// marked kSkipped and never emitted. Seeds derive from the *global* flat
  /// index, so k shard outputs concatenate to exactly the unsharded rows.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Deterministic fault injection (tests / CI chaos leg). Not owned; must
  /// outlive the run.
  const FaultPlan* faults = nullptr;
};

/// The contiguous flat-index block [total*i/k, total*(i+1)/k) that shard i
/// of k executes. Blocks cover [0, total) exactly once and concatenate in
/// shard order. Throws ScenarioError unless i < k.
std::pair<std::size_t, std::size_t> shard_range(std::size_t total,
                                                std::size_t index,
                                                std::size_t count);

/// Parses "i/k" (e.g. "0/2"); throws ScenarioError on malformed text or
/// i >= k.
std::pair<std::size_t, std::size_t> parse_shard(std::string_view text);

/// Runs that threw (status kFailed) — the suite exit code's input.
std::size_t suite_failure_count(std::span<const SuiteRun> runs);

class SuiteRunner {
 public:
  explicit SuiteRunner(SuiteOptions options = {});

  /// Expansion without execution: resolves every spec and derives every seed
  /// (index/rep/spec/scenario filled; outcome empty, attempts 0). Resume
  /// planning matches a prior artifact's rows against this, marks completed
  /// runs kSkipped, and hands the vector to execute().
  std::vector<SuiteRun> plan(const std::vector<ScenarioSpec>& specs) const;

  /// Executes a plan() vector in place: each run executes once (a throw
  /// makes it a kFailed row and the sweep goes on), streams in order through
  /// on_result, and only the shard's runs take part. Runs
  /// pre-marked kSkipped are not executed but still stream (resume
  /// substitution); sharding trims which indices participate at all.
  /// Releases the calling thread's workspace on return, so it is not called
  /// from inside a frame that holds workspace buffers.
  void execute(std::vector<SuiteRun>& runs) const;

  /// plan() + execute(). Resolution errors (unknown names/keys) throw
  /// before any run starts.
  std::vector<SuiteRun> run(const std::vector<ScenarioSpec>& specs) const;

  /// Convenience: parse_grid + expand_grid + run.
  std::vector<SuiteRun> run_grid(const ScenarioSpec& base,
                                 std::string_view grid) const;

 private:
  SuiteOptions options_;
};

// ---- rows -------------------------------------------------------------------

/// The default-column cells (default_columns() in src/sim/record.hpp) for
/// `run`, rendered through the typed schema layer — make_run_record +
/// RunRecord::cell_text, the one formatting path every text sink shares.
/// The determinism goldens pin the bytes.
std::vector<std::string> suite_row_cells(const SuiteRun& run,
                                         bool include_wall = false,
                                         bool include_rep = false);

}  // namespace colscore
