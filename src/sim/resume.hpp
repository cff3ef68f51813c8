// Resumable sweeps: rebuild what a prior (possibly crashed) suite already
// computed and re-run only the rest.
//
// A resumed suite reads the prior artifact — the finished PATH or, after a
// crash, the durable partial PATH.tmp (see the ResultSink partial-output
// contract in sink.hpp) — back into typed rows on the suite's *output*
// schema through the reader its sink registered (SinkEntry::read), matches
// each row against the freshly planned run list by the identity columns
// (workload/algorithm/adversary/n/budget/diameter/dishonest/seed/rep —
// whichever of those the column selection kept; `seed` is required), and
// marks every planned run with a complete ("ok") prior row
// kSkipped. SuiteRunner::execute streams skipped runs through on_result
// without executing them, where the caller substitutes the prior row
// (widen_prior_row + RecordStream). Because per-run seeds derive from the
// global flat index and all text rendering is idempotent under a parse →
// reformat round trip, the merged artifact is byte-identical to what an
// uninterrupted run would have produced (modulo wall_s, which re-runs
// honestly re-measure).
//
// Rows whose status is not ok (failed, or an older artifact's timeout) and
// a truncated text tail (a final line without its newline — the one write a
// crash can cut mid-row) are treated as not-computed and re-run with their
// original seeds.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/record.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"

namespace colscore {

/// A prior artifact's rows, decoded onto the output schema they were
/// written with (the suite schema projected onto the column selection).
struct PriorOutput : ArtifactRows {
  /// What was actually read: PATH.tmp when a crashed run left one
  /// (preferred — it is the interrupted run being resumed), else PATH.
  std::string source_path;
};

/// Reads PATH (or PATH.tmp) back through the reader `sink_name` registered
/// in SinkRegistry. The returned rows hold a pointer to `out_schema`, which
/// must outlive them. Throws ScenarioError prefixed "resume 'SOURCE':" on
/// any reader error (malformed interior rows, a header or `runs` table that
/// does not match `out_schema`) or a missing artifact, and names the sink
/// when it registered no reader.
PriorOutput load_prior_output(std::string_view sink_name,
                              const std::string& path,
                              const MetricSchema& out_schema);

/// Which planned runs are already done. Indices (not pointers) into
/// PriorOutput::rows keep the plan valid across moves.
struct ResumePlan {
  /// planned index -> index of its complete prior row, -1 = must (re)run.
  std::vector<std::ptrdiff_t> prior_row;
  /// Planned runs with a complete prior row.
  std::size_t completed = 0;
};

/// Matches prior rows (on `out_schema`) against the planned runs by the
/// identity columns, spelling each planned run's cells through
/// make_run_record on the full suite `schema`. Rows whose status is not
/// "ok" are ignored (re-run); a row matching no planned run throws (the
/// artifact belongs to a different suite).
ResumePlan plan_resume(const PriorOutput& prior,
                       std::span<const SuiteRun> planned,
                       const MetricSchema& schema,
                       const MetricSchema& out_schema);

/// Everything a resumed invocation carries: the output schema the prior
/// rows live on (owned; stable address across moves), the rows, the plan.
struct ResumeContext {
  std::unique_ptr<MetricSchema> out_schema;
  PriorOutput prior;
  ResumePlan plan;
};

/// The one-call resume front end of run_suite_file, which every sink-backed
/// CLI sweep goes through: projects `schema` onto `columns`, loads the prior
/// artifact, plans, and marks completed planned runs kSkipped in place.
/// Throws when `summary` is not kNone — aggregated rows do not identify
/// runs, so a summarized artifact cannot be resumed.
ResumeContext prepare_resume(std::string_view sink_name,
                             const std::string& path,
                             std::vector<SuiteRun>& planned,
                             const MetricSchema& schema,
                             std::span<const std::string> columns,
                             SummaryStat summary);

/// Lifts a prior row (on the resume output schema) back onto the full suite
/// schema by key, so RecordStream can re-project it exactly like a fresh
/// record. Columns outside the selection stay absent — the stream never
/// touches them.
RunRecord widen_prior_row(const RunRecord& row,
                          const MetricSchema& full_schema);

}  // namespace colscore
