#include "src/sim/resume.hpp"

#include <fstream>
#include <map>
#include <set>

#include "src/common/log.hpp"

namespace colscore {

namespace {

// ---- identity matching ------------------------------------------------------

const std::set<std::string>& identity_keys() {
  static const std::set<std::string> keys = {
      "workload", "algorithm", "adversary", "n",   "budget",
      "diameter", "dishonest", "seed",      "rep"};
  return keys;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

// ---- the public surface -----------------------------------------------------

PriorOutput load_prior_output(std::string_view sink_name,
                              const std::string& path,
                              const MetricSchema& out_schema) {
  if (path.empty())
    throw ScenarioError("resume needs a file artifact (an output path)");
  const ArtifactReader read = SinkRegistry::instance().at(sink_name).read;
  if (!read)
    throw ScenarioError("resume: sink '" + std::string(sink_name) +
                        "' has no artifact reader");
  PriorOutput out;
  // Prefer the crashed run's durable partial over an older complete
  // artifact: a PATH.tmp only exists when a file sink did not reach
  // finish(), and that interrupted run is the one being resumed.
  const std::string tmp = path + ".tmp";
  if (file_exists(tmp)) out.source_path = tmp;
  else if (file_exists(path)) out.source_path = path;
  else
    throw ScenarioError("resume '" + path + "': no prior artifact at '" +
                        path + "' or '" + tmp + "'");
  try {
    static_cast<ArtifactRows&>(out) = read(out.source_path, out_schema);
  } catch (const ScenarioError& e) {
    throw ScenarioError("resume '" + out.source_path + "': " + e.what());
  }
  if (out.truncated_rows != 0)
    log_warn("resume: discarded ", out.truncated_rows,
             " truncated trailing row in '", out.source_path, "'");
  return out;
}

ResumePlan plan_resume(const PriorOutput& prior,
                       std::span<const SuiteRun> planned,
                       const MetricSchema& schema,
                       const MetricSchema& out_schema) {
  std::vector<std::size_t> id_cols;       // out_schema columns
  std::vector<std::size_t> planned_cols;  // the same keys' schema columns
  bool has_seed = false;
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    const std::string& key = out_schema.spec(i).key;
    if (!identity_keys().contains(key)) continue;
    id_cols.push_back(i);
    planned_cols.push_back(schema.index_of(key));
    has_seed = has_seed || key == "seed";
  }
  if (!has_seed)
    throw ScenarioError(
        "resume requires the 'seed' column in the output — without it rows "
        "cannot be matched to planned runs");
  const MetricSpec* status_spec = out_schema.find("status");
  const std::size_t status_col =
      status_spec != nullptr ? out_schema.index_of("status") : 0;

  // '\x1f' (unit separator) cannot appear in the identity cells (names are
  // registry identifiers, the rest are decimal), so joined keys are unique.
  const auto identity = [](const RunRecord& record,
                           std::span<const std::size_t> cols) {
    std::string key;
    for (const std::size_t c : cols) {
      key += record.cell_text(c);
      key += '\x1f';
    }
    return key;
  };
  // Planned cells are spelled by the record a fresh run would write, so they
  // compare byte-for-byte with the prior rows' cells.
  std::map<std::string, std::size_t> by_key;
  for (std::size_t pi = 0; pi < planned.size(); ++pi) {
    const RunRecord record = make_run_record(planned[pi], schema);
    if (!by_key.emplace(identity(record, planned_cols), pi).second)
      throw ScenarioError(
          "resume: two planned runs share the selected identity columns — "
          "include 'seed' (derived seeds) or 'rep' in the columns to "
          "distinguish replicas");
  }

  ResumePlan plan;
  plan.prior_row.assign(planned.size(), -1);
  for (std::size_t ri = 0; ri < prior.rows.size(); ++ri) {
    const RunRecord& row = prior.rows[ri];
    const auto it = by_key.find(identity(row, id_cols));
    if (it == by_key.end())
      throw ScenarioError("resume '" + prior.source_path + "': row " +
                          std::to_string(ri + 1) +
                          " does not correspond to any planned run — the "
                          "artifact belongs to a different suite");
    // Only "ok" rows count; any other status (failed, or the timeout that
    // artifacts written before timeouts were removed may hold) is re-run.
    // Artifacts without a status column predate failure rows: every row is
    // complete.
    if (status_spec != nullptr && row.cell_text(status_col) != "ok") continue;
    if (plan.prior_row[it->second] == -1) ++plan.completed;
    plan.prior_row[it->second] = static_cast<std::ptrdiff_t>(ri);
  }
  return plan;
}

ResumeContext prepare_resume(std::string_view sink_name,
                             const std::string& path,
                             std::vector<SuiteRun>& planned,
                             const MetricSchema& schema,
                             std::span<const std::string> columns,
                             SummaryStat summary) {
  if (summary != SummaryStat::kNone)
    throw ScenarioError(
        "resume cannot be combined with a summary (aggregated rows do not "
        "identify individual runs)");
  ResumeContext ctx;
  ctx.out_schema = std::make_unique<MetricSchema>(schema.select(columns));
  ctx.prior = load_prior_output(sink_name, path, *ctx.out_schema);
  ctx.plan = plan_resume(ctx.prior, planned, schema, *ctx.out_schema);
  for (std::size_t i = 0; i < planned.size(); ++i)
    if (ctx.plan.prior_row[i] != -1) planned[i].status = RunStatus::kSkipped;
  return ctx;
}

RunRecord widen_prior_row(const RunRecord& row,
                          const MetricSchema& full_schema) {
  RunRecord out(&full_schema);
  const MetricSchema& row_schema = row.schema();
  for (std::size_t i = 0; i < row_schema.size(); ++i)
    if (row.value(i).has_value())
      out.set(row_schema.spec(i).key, row.value(i));
  return out;
}

}  // namespace colscore
