#include "src/sim/resume.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/json.hpp"
#include "src/common/log.hpp"
#include "src/common/strict_parse.hpp"
#include "src/sim/sink.hpp"

#if defined(COLSCORE_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace colscore {

namespace {

[[noreturn]] void resume_fail(const std::string& source,
                              const std::string& what) {
  throw ScenarioError("resume '" + source + "': " + what);
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---- text loading -----------------------------------------------------------

/// Reads `source` into complete lines. A final line without its terminating
/// newline is the one row a crash can cut mid-write (sinks emit whole
/// '\n'-terminated rows); it is dropped and counted, never parsed — a
/// truncated numeric cell could otherwise decode to a plausible wrong value.
std::vector<std::string> read_complete_lines(const std::string& source,
                                             std::size_t& truncated_rows) {
  std::ifstream in(source, std::ios::binary);
  if (!in) resume_fail(source, "cannot open for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = std::move(buffer).str();
  truncated_rows = 0;
  if (!text.empty() && text.back() != '\n') {
    const std::size_t nl = text.find_last_of('\n');
    text.resize(nl == std::string::npos ? 0 : nl + 1);
    truncated_rows = 1;
  }
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

// ---- jsonl ------------------------------------------------------------------

RunRecord decode_jsonl_row(const JsonValue& doc, const MetricSchema& schema,
                           const std::string& source,
                           const std::string& where) {
  if (!doc.is_object())
    resume_fail(source, where + ": expected an object, got " +
                            doc.kind_name());
  if (doc.members.size() != schema.size())
    resume_fail(source, where + ": has " + std::to_string(doc.members.size()) +
                            " fields where the schema has " +
                            std::to_string(schema.size()));
  RunRecord row(&schema);
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const auto& [key, v] = doc.members[i];
    const MetricSpec& spec = schema.spec(i);
    if (key != spec.key)
      resume_fail(source, where + ": field " + std::to_string(i) + " is '" +
                              key + "' where the schema has '" + spec.key +
                              "' (different columns?)");
    if (v.is_null()) continue;  // absent metric
    const auto wrong_kind = [&]() {
      resume_fail(source, where + ": field '" + key + "' is " +
                              v.kind_name() + " where the schema declares " +
                              metric_type_name(spec.type));
    };
    switch (spec.type) {
      case MetricType::kU64:
      case MetricType::kSize: {
        const std::optional<std::uint64_t> u =
            v.is_number() ? parse_strict_u64(v.text) : std::nullopt;
        if (!u) wrong_kind();
        row.set_value(i, MetricValue::of_u64(*u));
        break;
      }
      case MetricType::kF64: {
        // Finite values are native numbers; non-finite ones are the quoted
        // spellings JsonlSink emits ("nan", "inf", "-inf").
        const std::optional<double> d =
            v.is_number() || v.is_string() ? parse_strict_f64(v.text)
                                           : std::nullopt;
        if (!d) wrong_kind();
        row.set_value(i, MetricValue::of_f64(*d));
        break;
      }
      case MetricType::kString:
        if (!v.is_string()) wrong_kind();
        row.set_value(i, MetricValue::of_string(v.text));
        break;
      case MetricType::kBool:
        if (!v.is_bool()) wrong_kind();
        row.set_value(i, MetricValue::of_bool(v.boolean));
        break;
    }
  }
  return row;
}

void load_jsonl_rows(PriorOutput& out, const MetricSchema& schema) {
  const std::vector<std::string> lines =
      read_complete_lines(out.source_path, out.truncated_rows);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string where = "line " + std::to_string(li + 1);
    if (lines[li].empty()) continue;
    JsonValue doc;
    try {
      doc = json_parse(lines[li]);
    } catch (const JsonError& e) {
      resume_fail(out.source_path, where + ": " + e.what());
    }
    out.rows.push_back(decode_jsonl_row(doc, schema, out.source_path, where));
  }
}

// ---- csv --------------------------------------------------------------------

/// Splits one CSV line into cells, honoring the writer's quoting ('"'-
/// wrapped cells, '""' escapes). Embedded newlines are not supported —
/// nothing in the pipeline emits them. Returns false on a malformed line
/// (unterminated quote, text after a closing quote).
bool split_csv_row(const std::string& line, std::vector<std::string>& cells) {
  cells.clear();
  std::size_t pos = 0;
  for (;;) {
    std::string cell;
    if (pos < line.size() && line[pos] == '"') {
      ++pos;
      for (;;) {
        if (pos >= line.size()) return false;  // unterminated quote
        if (line[pos] == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            cell += '"';
            pos += 2;
            continue;
          }
          ++pos;
          break;
        }
        cell += line[pos++];
      }
      if (pos < line.size() && line[pos] != ',') return false;
    } else {
      const std::size_t comma = line.find(',', pos);
      cell = line.substr(pos, comma - pos);
      pos = comma == std::string::npos ? line.size() : comma;
    }
    cells.push_back(std::move(cell));
    if (pos >= line.size()) return true;
    ++pos;  // the comma
  }
}

void load_csv_rows(PriorOutput& out, const MetricSchema& schema) {
  const std::vector<std::string> lines =
      read_complete_lines(out.source_path, out.truncated_rows);
  if (lines.empty())
    resume_fail(out.source_path, "no header row (empty artifact)");
  std::string header;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i != 0) header += ',';
    header += schema.spec(i).key;
  }
  if (lines.front() != header)
    resume_fail(out.source_path, "header '" + lines.front() +
                                     "' does not match the suite's columns '" +
                                     header + "'");
  std::vector<std::string> cells;
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::string where = "line " + std::to_string(li + 1);
    if (!split_csv_row(lines[li], cells))
      resume_fail(out.source_path, where + ": malformed quoting");
    if (cells.size() != schema.size())
      resume_fail(out.source_path,
                  where + ": has " + std::to_string(cells.size()) +
                      " cells where the schema has " +
                      std::to_string(schema.size()));
    RunRecord row(&schema);
    for (std::size_t i = 0; i < schema.size(); ++i) {
      const MetricSpec& spec = schema.spec(i);
      if (cells[i].empty()) continue;  // absent metric
      const auto bad_cell = [&]() {
        resume_fail(out.source_path,
                    where + ": cell '" + cells[i] + "' under column '" +
                        spec.key + "' is not a valid " +
                        metric_type_name(spec.type));
      };
      switch (spec.type) {
        case MetricType::kU64:
        case MetricType::kSize: {
          const std::optional<std::uint64_t> u = parse_strict_u64(cells[i]);
          if (!u) bad_cell();
          row.set_value(i, MetricValue::of_u64(*u));
          break;
        }
        case MetricType::kF64: {
          const std::optional<double> d = parse_strict_f64(cells[i]);
          if (!d) bad_cell();
          row.set_value(i, MetricValue::of_f64(*d));
          break;
        }
        case MetricType::kString:
          row.set_value(i, MetricValue::of_string(cells[i]));
          break;
        case MetricType::kBool:
          if (cells[i] != "0" && cells[i] != "1") bad_cell();
          row.set_value(i, MetricValue::of_bool(cells[i] == "1"));
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
}

// ---- sqlite -----------------------------------------------------------------

#if defined(COLSCORE_HAVE_SQLITE)

void load_sqlite_rows(PriorOutput& out, const MetricSchema& schema) {
  sqlite3* db = nullptr;
  if (sqlite3_open_v2(out.source_path.c_str(), &db, SQLITE_OPEN_READONLY,
                      nullptr) != SQLITE_OK) {
    const std::string detail =
        db != nullptr ? sqlite3_errmsg(db) : "out of memory";
    sqlite3_close(db);
    resume_fail(out.source_path, "cannot open database: " + detail);
  }
  sqlite3_busy_timeout(db, 5000);
  const auto fail = [&](const std::string& what) {
    const std::string detail = sqlite3_errmsg(db);
    sqlite3_close(db);
    resume_fail(out.source_path, what + ": " + detail);
  };

  // The `runs` table must mirror the output schema exactly — same names,
  // same order, same affinities — or the decoded rows would be garbage.
  sqlite3_stmt* info = nullptr;
  if (sqlite3_prepare_v2(db, "PRAGMA table_info(runs)", -1, &info, nullptr) !=
      SQLITE_OK)
    fail("cannot inspect the 'runs' table");
  std::vector<std::pair<std::string, std::string>> existing;
  while (sqlite3_step(info) == SQLITE_ROW) {
    const unsigned char* name = sqlite3_column_text(info, 1);
    const unsigned char* type = sqlite3_column_text(info, 2);
    existing.emplace_back(
        name != nullptr ? reinterpret_cast<const char*>(name) : "",
        type != nullptr ? reinterpret_cast<const char*>(type) : "");
  }
  sqlite3_finalize(info);
  const auto table_mismatch = [&](const std::string& what) {
    sqlite3_close(db);
    resume_fail(out.source_path,
                "the 'runs' table does not match the suite schema (" + what +
                    ")");
  };
  if (existing.empty()) table_mismatch("no 'runs' table");
  if (existing.size() != schema.size())
    table_mismatch("it has " + std::to_string(existing.size()) +
                   " columns where the schema has " +
                   std::to_string(schema.size()));
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const MetricSpec& spec = schema.spec(i);
    if (existing[i].first != spec.key)
      table_mismatch("column " + std::to_string(i) + " is '" +
                     existing[i].first + "' where the schema has '" +
                     spec.key + "'");
    if (existing[i].second != sqlite_affinity(spec.type))
      table_mismatch("column '" + spec.key + "' is " + existing[i].second +
                     " where the schema needs " + sqlite_affinity(spec.type));
  }

  std::string sql = "SELECT ";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i != 0) sql += ", ";
    sql += sqlite_quote_ident(schema.spec(i).key);
  }
  sql += " FROM runs ORDER BY rowid";
  sqlite3_stmt* select = nullptr;
  if (sqlite3_prepare_v2(db, sql.c_str(), -1, &select, nullptr) != SQLITE_OK)
    fail("cannot read the 'runs' table");
  int rc = 0;
  while ((rc = sqlite3_step(select)) == SQLITE_ROW) {
    RunRecord row(&schema);
    for (std::size_t i = 0; i < schema.size(); ++i) {
      const int col = static_cast<int>(i);
      if (sqlite3_column_type(select, col) == SQLITE_NULL) continue;
      switch (schema.spec(i).type) {
        case MetricType::kU64:
        case MetricType::kSize:
          // The sink binds u64 as the two's-complement int64; cast back.
          row.set_value(i, MetricValue::of_u64(static_cast<std::uint64_t>(
                               sqlite3_column_int64(select, col))));
          break;
        case MetricType::kF64:
          row.set_value(i,
                        MetricValue::of_f64(sqlite3_column_double(select, col)));
          break;
        case MetricType::kBool:
          row.set_value(i, MetricValue::of_bool(
                               sqlite3_column_int(select, col) != 0));
          break;
        case MetricType::kString: {
          const unsigned char* s = sqlite3_column_text(select, col);
          row.set_value(i, MetricValue::of_string(
                               s != nullptr ? reinterpret_cast<const char*>(s)
                                            : ""));
          break;
        }
      }
    }
    out.rows.push_back(std::move(row));
  }
  sqlite3_finalize(select);
  if (rc != SQLITE_DONE) fail("row read failed");
  sqlite3_close(db);
}

#endif  // COLSCORE_HAVE_SQLITE

// ---- identity matching ------------------------------------------------------

const std::set<std::string>& identity_keys() {
  static const std::set<std::string> keys = {
      "workload", "algorithm", "adversary", "n",   "budget",
      "diameter", "dishonest", "seed",      "rep"};
  return keys;
}

/// The planned run's canonical text for an identity column — spelled
/// exactly like RunRecord::cell_text would spell it, so prior-row keys and
/// planned keys compare byte-for-byte.
std::string planned_cell(const SuiteRun& run, const std::string& key) {
  const Scenario& sc = run.scenario;
  if (key == "workload") return sc.workload;
  if (key == "algorithm") return sc.algorithm;
  if (key == "adversary") return sc.adversary;
  if (key == "n") return std::to_string(sc.n);
  if (key == "budget") return std::to_string(sc.budget);
  if (key == "diameter") return std::to_string(sc.diameter);
  if (key == "dishonest") return std::to_string(sc.dishonest);
  if (key == "seed") return std::to_string(sc.seed);
  if (key == "rep") return std::to_string(run.rep);
  CS_ASSERT(false, "planned_cell: not an identity column");
  return "";
}

}  // namespace

// ---- the public surface -----------------------------------------------------

PriorOutput load_prior_output(std::string_view sink_name,
                              const std::string& path,
                              const MetricSchema& out_schema) {
  if (path.empty())
    throw ScenarioError("resume needs a file artifact (an output path)");
  PriorOutput out;
  // Prefer the crashed run's durable partial over an older complete
  // artifact: a PATH.tmp only exists when a fresh-mode run did not reach
  // finish(), and that interrupted run is the one being resumed.
  const std::string tmp = path + ".tmp";
  if (file_exists(tmp)) out.source_path = tmp;
  else if (file_exists(path)) out.source_path = path;
  else
    throw ScenarioError("resume '" + path + "': no prior artifact at '" +
                        path + "' or '" + tmp + "'");
  if (sink_name == "jsonl") {
    load_jsonl_rows(out, out_schema);
  } else if (sink_name == "csv") {
    load_csv_rows(out, out_schema);
  } else if (sink_name == "sqlite") {
#if defined(COLSCORE_HAVE_SQLITE)
    load_sqlite_rows(out, out_schema);
#else
    throw ScenarioError("resume: this build has no sqlite support");
#endif
  } else {
    throw ScenarioError("resume: sink '" + std::string(sink_name) +
                        "' has no artifact reader (supported: csv, jsonl, "
                        "sqlite)");
  }
  if (out.truncated_rows != 0)
    log_warn("resume: discarded ", out.truncated_rows,
             " truncated trailing row in '", out.source_path, "'");
  return out;
}

ResumePlan plan_resume(const PriorOutput& prior,
                       std::span<const SuiteRun> planned,
                       const MetricSchema& out_schema) {
  std::vector<std::size_t> id_cols;
  bool has_seed = false;
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    const std::string& key = out_schema.spec(i).key;
    if (!identity_keys().contains(key)) continue;
    id_cols.push_back(i);
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
  std::map<std::string, std::size_t> by_key;
  for (std::size_t pi = 0; pi < planned.size(); ++pi) {
    std::string key;
    for (const std::size_t c : id_cols) {
      key += planned_cell(planned[pi], out_schema.spec(c).key);
      key += '\x1f';
    }
    if (!by_key.emplace(std::move(key), pi).second)
      throw ScenarioError(
          "resume: two planned runs share the selected identity columns — "
          "include 'seed' (derived seeds) or 'rep' in the columns to "
          "distinguish replicas");
  }

  ResumePlan plan;
  plan.prior_row.assign(planned.size(), -1);
  for (std::size_t ri = 0; ri < prior.rows.size(); ++ri) {
    const RunRecord& row = prior.rows[ri];
    std::string key;
    for (const std::size_t c : id_cols) {
      key += row.cell_text(c);
      key += '\x1f';
    }
    const auto it = by_key.find(key);
    if (it == by_key.end())
      throw ScenarioError("resume '" + prior.source_path + "': row " +
                          std::to_string(ri + 1) +
                          " does not correspond to any planned run — the "
                          "artifact belongs to a different suite");
    // Only complete rows count; failed/timeout rows are re-run. Artifacts
    // without a status column predate failure rows: every row is complete.
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
  ctx.plan = plan_resume(ctx.prior, planned, *ctx.out_schema);
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
