// Suite files: checked-in JSON descriptions of whole experiment sweeps.
//
// The ROADMAP's experiment space (workloads x adversaries x algorithms x n x
// dishonest x reps) outgrows shell one-liners fast; a suite file makes the
// sweep a reviewable artifact. One JSON object describes the base spec, any
// number of grids over it, the replication count, and where the rows go:
//
//   {
//     "name": "smoke",
//     "description": "tiny CI sweep",
//     "base": {"workload": "planted", "budget": 4, "dishonest": 4,
//              "opt": false},
//     "grids": ["n=48,64 x adversary=none,sleeper"],
//     "reps": 2,
//     "sink": "jsonl",
//     "output": "smoke.jsonl"
//   }
//
// `base` maps override keys (plus workload/adversary/algorithm) to strings,
// numbers, or booleans — or is a single spec string ("workload=planted
// n=64"). `grids` reuses the `--grid` axis syntax; several grids concatenate
// in order and share one flat run-index space, so per-run seed derivation is
// identical to running the concatenated spec list directly. Replication is
// the top-level "reps" key (a reps= axis inside a grid is rejected —
// replication is a suite property here, not a sweep axis). Optional knobs:
// "threads" (0 = hardware), "wall" (include the wall_s column; off by
// default so outputs are byte-reproducible), "derive_seeds" (default true;
// false reruns literal seeds; the base "seed" moves every derived seed),
// "columns" (explicit column selection — an array of metric keys or one
// comma-separated string, validated against the suite's metric schema at
// parse time; default: the historical column set), and "summary"
// ("mean"/"min"/"max": one aggregated row per grid cell instead of one row
// per rep).
//
// "faults" is a deterministic FaultPlan spec string for chaos tests
// (src/sim/fault.hpp), validated at parse time like everything else. No key
// retries or times out a run: a run is a pure function of its seed, so a
// failed row is re-run by resuming the artifact.
//
// All validation errors are ScenarioErrors prefixed "suite file 'PATH':"
// and name the offending key, so a typo in a checked-in suite fails the CI
// smoke with an actionable message.
//
// A SuiteFile is also the one front end of every sink-backed sweep:
// colscore_cli loads one for --suite, or builds one from its flags for a
// --grid or a single scenario with a sink, and hands it to run_suite_file.
// Every runner setting has exactly one field here (most live in `options`),
// so a CLI flag that overrides a file's choice writes that field before the
// run; only per-invocation inputs travel in SuiteFileOverrides.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"

namespace colscore {

struct SuiteFile {
  std::string origin;  // path (or label) used in error messages
  std::string name;
  std::string description;
  ScenarioSpec base;
  /// Parsed grids, in file order. Empty = one run of `base` per rep.
  std::vector<std::vector<GridAxis>> grids;
  /// Runner settings: "reps", "threads", "derive_seeds" (a caller may also
  /// set the shard).
  /// run_suite_file replaces options.faults and options.on_result with the
  /// plan parsed from `faults` and its sink stream.
  SuiteOptions options;
  bool include_wall = false;
  /// Explicit column selection (schema keys, in order). Empty = the default
  /// column set (plus rep/wall as configured).
  std::vector<std::string> columns;
  /// Per-cell aggregation over reps (kNone = one row per run).
  SummaryStat summary = SummaryStat::kNone;
  std::string sink = "csv";
  std::string output;  // empty = stdout (file-only sinks reject at run time)
  /// FaultPlan spec string ("" = no injected faults).
  std::string faults;

  /// Concatenated grid expansions over `base` (file order).
  std::vector<ScenarioSpec> expand() const;
};

/// Parses a suite-file document. `origin` labels error messages (use the
/// path). Throws ScenarioError on malformed JSON, unknown keys, or
/// wrong-typed values.
SuiteFile parse_suite_file(std::string_view json_text, std::string origin);

/// Reads and parses `path`.
SuiteFile load_suite_file(const std::string& path);

/// Per-invocation inputs no file key can express. Callers that override a
/// file's choices (the CLI's --sink/--out/--threads/...) write the
/// SuiteFile field itself.
struct SuiteFileOverrides {
  /// Forces the sink destination (tests, stdout capture); beats `output`.
  std::ostream* stream = nullptr;
  /// Path of a prior artifact (PATH or PATH.tmp is read): completed runs
  /// are not re-executed, their rows are replayed from the artifact, and
  /// the merged output is written to the configured destination.
  std::optional<std::string> resume;
};

/// Expands the file, builds its sink and metric schema, and streams every
/// run through a RecordStream (column selection + summary applied) into the
/// sink in run-index order; returns the runs (failure rows included —
/// check suite_failure_count for the exit code). When resuming, the prior
/// artifact is read *before* the sink opens, so resuming onto the same
/// path is safe.
std::vector<SuiteRun> run_suite_file(const SuiteFile& file,
                                     const SuiteFileOverrides& overrides = {});

}  // namespace colscore
