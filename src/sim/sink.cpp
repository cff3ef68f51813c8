#include "src/sim/sink.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/common/assert.hpp"
#include "src/common/json.hpp"
#include "src/common/log.hpp"

#if defined(COLSCORE_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace colscore {

namespace {

/// Opens `config` for a text sink: the explicit stream if set, stdout for an
/// empty path, otherwise `PATH.tmp` truncated, recording the rename for
/// finish() (ScenarioError on failure).
std::ostream* open_text_destination(const char* sink_name,
                                    const SinkConfig& config,
                                    std::ofstream& file, std::string& tmp_path,
                                    std::string& final_path) {
  if (config.stream != nullptr) return config.stream;
  if (config.path.empty()) return &std::cout;
  tmp_path = config.path + ".tmp";
  final_path = config.path;
  file.open(tmp_path, std::ios::out | std::ios::trunc);
  if (!file)
    throw ScenarioError(std::string("sink '") + sink_name +
                        "': cannot open '" + tmp_path + "' for writing");
  return &file;
}

/// finish() tail for text sinks: close the file and, for a file artifact,
/// rename the temp artifact into place. Clears `final_path` so a second
/// finish() is a no-op.
void finalize_text(const char* sink_name, std::ofstream& file,
                   const std::string& tmp_path, std::string& final_path) {
  if (file.is_open()) {
    const bool healthy = static_cast<bool>(file);
    file.close();
    if (!healthy)
      throw ScenarioError(std::string("sink '") + sink_name +
                          "': write failed (disk full or device error); the "
                          "partial artifact was kept");
  }
  if (final_path.empty()) return;
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0)
    throw ScenarioError(std::string("sink '") + sink_name +
                        "': cannot rename '" + tmp_path + "' to '" +
                        final_path + "'");
  final_path.clear();
}

/// Reads a text artifact into complete lines. A final line without its
/// terminating newline is the one row a crash can cut mid-write (text sinks
/// emit whole '\n'-terminated rows); it is dropped and counted, never
/// parsed — a truncated numeric cell could otherwise decode to a plausible
/// wrong value.
std::vector<std::string> read_complete_lines(const std::string& path,
                                             std::size_t& truncated_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError("cannot open for reading");
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

/// Text-reader errors name their 1-based line.
[[noreturn]] void line_fail(std::size_t line, const std::string& what) {
  throw ScenarioError("line " + std::to_string(line) + ": " + what);
}

}  // namespace

// ---- RecordStream -----------------------------------------------------------

RecordStream::RecordStream(ResultSink& sink, const MetricSchema& schema,
                           std::span<const std::string> columns,
                           Options options)
    : sink_(sink),
      summary_(options.summary),
      reps_(std::max<std::size_t>(1, options.reps)) {
  // MetricSchema::select is the one authoritative validation/projection
  // (unknown-column and selected-twice errors live there); the index map
  // then reuses the already-validated keys.
  selected_ = schema.select(columns);
  map_.reserve(columns.size());
  for (const std::string& key : columns) map_.push_back(schema.index_of(key));
  out_ = summarized_schema(selected_, summary_);
  sink_.begin(out_);
}

void RecordStream::write(const RunRecord& record) {
  RunRecord row(&selected_);
  for (std::size_t j = 0; j < map_.size(); ++j)
    row.set_value(j, record.value(map_[j]));
  if (summary_ == SummaryStat::kNone) {
    sink_.write(row);
    return;
  }
  cell_.push_back(std::move(row));
  if (cell_.size() == reps_) {
    sink_.write(summarize_records(out_, cell_, summary_));
    cell_.clear();
  }
}

void RecordStream::finish() {
  CS_ASSERT(cell_.empty(),
            "record stream: partial summary cell at finish (row count is "
            "not a multiple of reps)");
  sink_.finish();
}

// ---- CsvSink ----------------------------------------------------------------

CsvSink::CsvSink(const SinkConfig& config) {
  out_ = open_text_destination("csv", config, file_, tmp_path_, final_path_);
}

void CsvSink::begin(const MetricSchema& schema) {
  CS_ASSERT(!writer_.has_value(), "sink: begin() called twice");
  writer_.emplace(*out_, schema.keys());
}

void CsvSink::write(const RunRecord& record) {
  CS_ASSERT(writer_.has_value(), "sink: write() before begin()");
  writer_->row(record.cells());
  ++rows_;
  out_->flush();  // every row is a durability point
}

void CsvSink::finish() {
  out_->flush();
  finalize_text("csv", file_, tmp_path_, final_path_);
}

ArtifactRows CsvSink::read(const std::string& path,
                           const MetricSchema& schema) {
  ArtifactRows out;
  const std::vector<std::string> lines =
      read_complete_lines(path, out.truncated_rows);
  if (lines.empty()) throw ScenarioError("no header row (empty artifact)");
  std::string header;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i != 0) header += ',';
    header += schema.spec(i).key;
  }
  if (lines.front() != header)
    line_fail(1, "header '" + lines.front() +
                     "' does not match the suite's columns '" + header + "'");
  std::vector<std::string> cells;
  for (std::size_t li = 1; li < lines.size(); ++li) {
    if (!split_csv_row(lines[li], cells))
      line_fail(li + 1, "malformed quoting");
    if (cells.size() != schema.size())
      line_fail(li + 1, "has " + std::to_string(cells.size()) +
                            " cells where the schema has " +
                            std::to_string(schema.size()));
    RunRecord row(&schema);
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (cells[i].empty()) continue;  // absent metric
      const MetricSpec& spec = schema.spec(i);
      std::optional<MetricValue> v = parse_cell_text(cells[i], spec.type);
      if (!v)
        line_fail(li + 1, "cell '" + cells[i] + "' under column '" +
                              spec.key + "' is not a valid " +
                              metric_type_name(spec.type));
      row.set_value(i, std::move(*v));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

// ---- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(const SinkConfig& config) {
  out_ = open_text_destination("jsonl", config, file_, tmp_path_, final_path_);
}

void JsonlSink::begin(const MetricSchema& schema) {
  CS_ASSERT(schema_.empty(), "sink: begin() called twice");
  CS_ASSERT(!schema.empty(), "sink: empty schema");
  schema_ = schema;
}

void JsonlSink::write(const RunRecord& record) {
  CS_ASSERT(record.size() == schema_.size(), "sink: row width mismatch");
  std::string line = "{";
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (i != 0) line += ',';
    line += json_quote(schema_.spec(i).key);
    line += ':';
    const MetricValue& v = record.value(i);
    if (!v.has_value()) {
      line += "null";
      continue;
    }
    switch (schema_.spec(i).type) {
      case MetricType::kString:
        line += json_quote(v.as_string());
        break;
      case MetricType::kBool:
        line += v.as_bool() ? "true" : "false";
        break;
      case MetricType::kU64:
      case MetricType::kSize:
        // Native JSON number, spelled exactly like the CSV cell (the shared
        // formatting path). JSON numbers are arbitrary-precision decimal, so
        // u64 values above 2^53 survive verbatim in the text.
        line += record.cell_text(i);
        break;
      case MetricType::kF64: {
        const double d = v.as_f64();
        // JSON has no nan/inf literals; quote the non-finite spellings.
        if (std::isfinite(d)) line += record.cell_text(i);
        else line += json_quote(record.cell_text(i));
        break;
      }
    }
  }
  line += "}\n";
  *out_ << line;
  ++rows_;
  out_->flush();  // every row is a durability point
}

void JsonlSink::finish() {
  out_->flush();
  finalize_text("jsonl", file_, tmp_path_, final_path_);
}

ArtifactRows JsonlSink::read(const std::string& path,
                             const MetricSchema& schema) {
  ArtifactRows out;
  const std::vector<std::string> lines =
      read_complete_lines(path, out.truncated_rows);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    if (lines[li].empty()) continue;
    JsonValue doc;
    try {
      doc = json_parse(lines[li]);
    } catch (const JsonError& e) {
      line_fail(li + 1, e.what());
    }
    if (!doc.is_object())
      line_fail(li + 1, std::string("expected an object, got ") +
                            doc.kind_name());
    if (doc.members.size() != schema.size())
      line_fail(li + 1, "has " + std::to_string(doc.members.size()) +
                            " fields where the schema has " +
                            std::to_string(schema.size()));
    RunRecord row(&schema);
    for (std::size_t i = 0; i < schema.size(); ++i) {
      const auto& [key, v] = doc.members[i];
      const MetricSpec& spec = schema.spec(i);
      if (key != spec.key)
        line_fail(li + 1, "field " + std::to_string(i) + " is '" + key +
                              "' where the schema has '" + spec.key +
                              "' (different columns?)");
      if (v.is_null()) continue;  // absent metric
      // The kinds write() emits: numbers for u64/size, numbers or the quoted
      // non-finite spellings for f64, strings, and true/false.
      bool kind_ok = false;
      switch (spec.type) {
        case MetricType::kU64:
        case MetricType::kSize: kind_ok = v.is_number(); break;
        case MetricType::kF64: kind_ok = v.is_number() || v.is_string(); break;
        case MetricType::kString: kind_ok = v.is_string(); break;
        case MetricType::kBool: kind_ok = v.is_bool(); break;
      }
      std::optional<MetricValue> value;
      if (kind_ok)
        value = spec.type == MetricType::kBool
                    ? MetricValue::of_bool(v.boolean)
                    : parse_cell_text(v.text, spec.type);
      if (!value)
        line_fail(li + 1, "field '" + key + "' is " + v.kind_name() +
                              " where the schema declares " +
                              metric_type_name(spec.type));
      row.set_value(i, std::move(*value));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

// ---- SqliteSink -------------------------------------------------------------

#if defined(COLSCORE_HAVE_SQLITE)

namespace {

/// Rows per insert transaction: each commit is a durability point.
constexpr std::size_t kCommitRows = 64;

[[noreturn]] void sqlite_fail(sqlite3* db, const std::string& what) {
  std::string msg = "sink 'sqlite': " + what;
  if (db != nullptr) msg += std::string(": ") + sqlite3_errmsg(db);
  throw ScenarioError(msg);
}

/// A double-quoted column name ("" escapes an embedded quote).
std::string sqlite_quote_ident(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// A metric type's column affinity.
const char* sqlite_affinity(MetricType type) {
  switch (type) {
    case MetricType::kU64:
    case MetricType::kSize:
    case MetricType::kBool: return "INTEGER";
    case MetricType::kF64: return "REAL";
    case MetricType::kString: return "TEXT";
  }
  return "TEXT";
}

}  // namespace

SqliteSink::SqliteSink(const SinkConfig& config) {
  if (config.stream != nullptr || config.path.empty())
    throw ScenarioError(
        "sink 'sqlite' writes a database file; pass an output path (--out "
        "PATH or the suite file's \"output\" key)");
  tmp_path_ = config.path + ".tmp";
  final_path_ = config.path;
  // A stale temp database from a crashed run would make CREATE TABLE
  // collide; the committed rows it holds belong to --resume, which reads
  // it *before* the new sink is constructed.
  std::remove(tmp_path_.c_str());
  if (sqlite3_open(tmp_path_.c_str(), &db_) != SQLITE_OK) {
    const std::string detail =
        db_ != nullptr ? sqlite3_errmsg(db_) : "out of memory";
    sqlite3_close(db_);
    db_ = nullptr;
    throw ScenarioError("sink 'sqlite': cannot open '" + tmp_path_ +
                        "': " + detail);
  }
}

SqliteSink::~SqliteSink() {
  if (db_ == nullptr) return;  // finish() already succeeded
  // The abort path of the partial-output contract: roll back the open
  // transaction (keeping every previously committed batch), release the
  // handle, and do NOT rename — PATH keeps its last complete artifact and
  // PATH.tmp holds the durable prefix for --resume.
  if (insert_ != nullptr) {
    sqlite3_finalize(insert_);
    insert_ = nullptr;
  }
  if (in_transaction_) {
    in_transaction_ = false;
    char* err = nullptr;
    if (sqlite3_exec(db_, "ROLLBACK", nullptr, nullptr, &err) != SQLITE_OK)
      log_error("sqlite sink teardown: rollback failed: ",
                err != nullptr ? err : "unknown error");
    sqlite3_free(err);
  }
  sqlite3_close(db_);
  db_ = nullptr;
}

void SqliteSink::exec(const std::string& sql) {
  char* err = nullptr;
  if (sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &err) != SQLITE_OK) {
    const std::string detail = err != nullptr ? err : "unknown error";
    sqlite3_free(err);
    throw ScenarioError("sink 'sqlite': " + sql.substr(0, 32) + "...: " +
                        detail);
  }
}

void SqliteSink::begin(const MetricSchema& schema) {
  CS_ASSERT(insert_ == nullptr, "sink: begin() called twice");
  CS_ASSERT(!schema.empty(), "sink: empty schema");
  std::string create = "CREATE TABLE runs (";
  std::string insert = "INSERT INTO runs VALUES (";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const MetricSpec& spec = schema.spec(i);
    if (i != 0) {
      create += ", ";
      insert += ",";
    }
    create += sqlite_quote_ident(spec.key) + " " + sqlite_affinity(spec.type);
    insert += "?";
    types_.push_back(spec.type);
  }
  create += ")";
  insert += ")";
  exec(create);  // the constructor removed any stale temp database
  // Batched transactions: per-row commits would fsync every run and
  // dominate large sweeps, while one suite-wide transaction would leave
  // nothing durable after a crash. Every kCommitRows rows, write() commits
  // and reopens (a durability point for --resume).
  exec("BEGIN TRANSACTION");
  in_transaction_ = true;
  if (sqlite3_prepare_v2(db_, insert.c_str(), -1, &insert_, nullptr) !=
      SQLITE_OK)
    sqlite_fail(db_, "cannot prepare row insert");
}

void SqliteSink::write(const RunRecord& record) {
  CS_ASSERT(insert_ != nullptr, "sink: write() before begin()");
  CS_ASSERT(record.size() == types_.size(), "sink: row width mismatch");
  for (std::size_t i = 0; i < types_.size(); ++i) {
    const int slot = static_cast<int>(i + 1);
    const MetricValue& v = record.value(i);
    int rc = SQLITE_OK;
    if (!v.has_value()) {
      rc = sqlite3_bind_null(insert_, slot);
    } else {
      switch (types_[i]) {
        case MetricType::kU64:
        case MetricType::kSize:
          // Two's-complement bind: values >= 2^63 keep their bit pattern
          // (cast sqlite3_column_int64 back to uint64_t for an exact read).
          rc = sqlite3_bind_int64(
              insert_, slot, static_cast<sqlite3_int64>(v.as_u64()));
          break;
        case MetricType::kBool:
          rc = sqlite3_bind_int(insert_, slot, v.as_bool() ? 1 : 0);
          break;
        case MetricType::kF64:
          rc = sqlite3_bind_double(insert_, slot, v.as_f64());
          break;
        case MetricType::kString: {
          const std::string& s = v.as_string();
          rc = sqlite3_bind_text(insert_, slot, s.data(),
                                 static_cast<int>(s.size()), SQLITE_TRANSIENT);
          break;
        }
      }
    }
    if (rc != SQLITE_OK) sqlite_fail(db_, "cannot bind row cell");
  }
  if (sqlite3_step(insert_) != SQLITE_DONE)
    sqlite_fail(db_, "cannot insert row");
  sqlite3_reset(insert_);
  ++rows_;
  if (rows_ % kCommitRows == 0) {  // durability point
    exec("COMMIT");
    exec("BEGIN TRANSACTION");
  }
}

void SqliteSink::finish() {
  if (db_ == nullptr) return;
  if (insert_ != nullptr) {
    sqlite3_finalize(insert_);
    insert_ = nullptr;
  }
  if (in_transaction_) {
    in_transaction_ = false;
    exec("COMMIT");
  }
  sqlite3_close(db_);
  db_ = nullptr;
  if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0)
    throw ScenarioError("sink 'sqlite': cannot rename '" + tmp_path_ +
                        "' to '" + final_path_ + "'");
}

ArtifactRows SqliteSink::read(const std::string& path,
                              const MetricSchema& schema) {
  sqlite3* raw = nullptr;
  const int open_rc =
      sqlite3_open_v2(path.c_str(), &raw, SQLITE_OPEN_READONLY, nullptr);
  const std::unique_ptr<sqlite3, int (*)(sqlite3*)> handle(raw, &sqlite3_close);
  sqlite3* db = handle.get();
  if (open_rc != SQLITE_OK)
    throw ScenarioError(std::string("cannot open database: ") +
                        (db != nullptr ? sqlite3_errmsg(db) : "out of memory"));
  const auto fail = [db](const std::string& what) {
    throw ScenarioError(what + ": " + sqlite3_errmsg(db));
  };

  // The `runs` table must mirror the schema exactly — same names, same
  // order, same affinities — or the decoded rows would be garbage.
  sqlite3_stmt* info = nullptr;
  if (sqlite3_prepare_v2(db, "PRAGMA table_info(runs)", -1, &info, nullptr) !=
      SQLITE_OK)
    fail("cannot inspect the 'runs' table");
  std::vector<std::pair<std::string, std::string>> existing;  // (name, type)
  while (sqlite3_step(info) == SQLITE_ROW) {
    const unsigned char* name = sqlite3_column_text(info, 1);
    const unsigned char* type = sqlite3_column_text(info, 2);
    existing.emplace_back(
        name != nullptr ? reinterpret_cast<const char*>(name) : "",
        type != nullptr ? reinterpret_cast<const char*>(type) : "");
  }
  sqlite3_finalize(info);
  const auto table_mismatch = [](const std::string& what) {
    throw ScenarioError("the 'runs' table does not match the suite schema (" +
                        what + ")");
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
  ArtifactRows out;
  int rc = 0;
  while ((rc = sqlite3_step(select)) == SQLITE_ROW) {
    RunRecord row(&schema);
    for (std::size_t i = 0; i < schema.size(); ++i) {
      const int col = static_cast<int>(i);
      if (sqlite3_column_type(select, col) == SQLITE_NULL) continue;
      switch (schema.spec(i).type) {
        case MetricType::kU64:
        case MetricType::kSize:
          // write() binds u64 as the two's-complement int64; cast back.
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
  return out;
}

#endif  // COLSCORE_HAVE_SQLITE

// ---- sink registry ----------------------------------------------------------

SinkRegistry& SinkRegistry::instance() {
  static SinkRegistry& reg = *[] {
    auto* r = new SinkRegistry();
    r->add("csv", {"comma-separated rows with a header line (the historical "
                   "output)",
                   [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
                     return std::make_unique<CsvSink>(config);
                   },
                   &CsvSink::read});
    r->add("jsonl",
           {"JSON Lines: one object per run, native numbers, keys = columns",
            [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
              return std::make_unique<JsonlSink>(config);
            },
            &JsonlSink::read});
#if defined(COLSCORE_HAVE_SQLITE)
    r->add("sqlite",
           {"sqlite database with a typed `runs` table (INTEGER/REAL "
            "affinities; query sweeps without parsing)",
            [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
              return std::make_unique<SqliteSink>(config);
            },
            &SqliteSink::read});
#endif
    return r;
  }();
  return reg;
}

std::unique_ptr<ResultSink> make_sink(std::string_view name,
                                      const SinkConfig& config) {
  return SinkRegistry::instance().at(name).make(config);
}

}  // namespace colscore
