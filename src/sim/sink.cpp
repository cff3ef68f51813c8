#include "src/sim/sink.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

#include "src/common/assert.hpp"
#include "src/common/json.hpp"
#include "src/common/log.hpp"

#if defined(COLSCORE_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace colscore {

namespace {

/// Opens `config` for a text sink: the explicit stream if set, stdout for an
/// empty path, otherwise a file (ScenarioError on failure). Fresh mode opens
/// `PATH.tmp` truncated and records the rename for finish(); append mode
/// opens PATH itself and records nothing.
std::ostream* open_text_destination(const char* sink_name,
                                    const SinkConfig& config,
                                    std::ofstream& file, std::string& tmp_path,
                                    std::string& final_path) {
  if (config.stream != nullptr) return config.stream;
  if (config.path.empty()) return &std::cout;
  std::string open_path = config.path;
  if (config.append) {
    file.open(open_path, std::ios::out | std::ios::app);
  } else {
    tmp_path = config.path + ".tmp";
    final_path = config.path;
    open_path = tmp_path;
    file.open(open_path, std::ios::out | std::ios::trunc);
  }
  if (!file)
    throw ScenarioError(std::string("sink '") + sink_name +
                        "': cannot open '" + open_path + "' for writing");
  return &file;
}

/// finish() tail for text sinks: close the file and, in fresh mode, rename
/// the temp artifact into place. Clears `final_path` so a second finish()
/// is a no-op.
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

/// Whether PATH already holds bytes (csv append: suppress the header).
bool file_has_content(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good() && in.peek() != std::ifstream::traits_type::eof();
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
  suppress_header_ = config.append && config.stream == nullptr &&
                     !config.path.empty() && file_has_content(config.path);
  out_ = open_text_destination("csv", config, file_, tmp_path_, final_path_);
}

void CsvSink::begin(const MetricSchema& schema) {
  CS_ASSERT(!writer_.has_value(), "sink: begin() called twice");
  writer_.emplace(*out_, schema.keys(), /*emit_header=*/!suppress_header_);
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

}  // namespace

std::string sqlite_quote_ident(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

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

SqliteSink::SqliteSink(const SinkConfig& config) : append_(config.append) {
  if (config.stream != nullptr || config.path.empty())
    throw ScenarioError(
        "sink 'sqlite' writes a database file; pass an output path (--out "
        "PATH or the suite file's \"output\" key)");
  std::string open_path = config.path;
  if (!append_) {
    tmp_path_ = config.path + ".tmp";
    final_path_ = config.path;
    open_path = tmp_path_;
    // A stale temp database from a crashed run would make CREATE TABLE
    // collide; the committed rows it holds belong to --resume, which reads
    // it *before* the new sink is constructed.
    std::remove(tmp_path_.c_str());
  }
  if (sqlite3_open(open_path.c_str(), &db_) != SQLITE_OK) {
    const std::string detail =
        db_ != nullptr ? sqlite3_errmsg(db_) : "out of memory";
    sqlite3_close(db_);
    db_ = nullptr;
    throw ScenarioError("sink 'sqlite': cannot open '" + open_path +
                        "': " + detail);
  }
  // Concurrent shard writers appending to one database contend for the
  // write lock; wait out the other writer's commit instead of failing.
  sqlite3_busy_timeout(db_, 5000);
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
  if (append_) {
    create_or_validate_table(schema, create);
  } else {
    // The temp database is fresh, but DROP keeps a re-used handle honest.
    exec("DROP TABLE IF EXISTS runs");
    exec(create);
  }
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

void SqliteSink::create_or_validate_table(const MetricSchema& schema,
                                          const std::string& create_sql) {
  sqlite3_stmt* info = nullptr;
  if (sqlite3_prepare_v2(db_, "PRAGMA table_info(runs)", -1, &info, nullptr) !=
      SQLITE_OK)
    sqlite_fail(db_, "cannot inspect the existing 'runs' table");
  std::vector<std::pair<std::string, std::string>> existing;  // (name, type)
  while (sqlite3_step(info) == SQLITE_ROW) {
    const unsigned char* name = sqlite3_column_text(info, 1);
    const unsigned char* type = sqlite3_column_text(info, 2);
    existing.emplace_back(
        name != nullptr ? reinterpret_cast<const char*>(name) : "",
        type != nullptr ? reinterpret_cast<const char*>(type) : "");
  }
  sqlite3_finalize(info);
  if (existing.empty()) {  // no table yet — the first writer creates it
    exec(create_sql);
    return;
  }
  const auto mismatch = [](const std::string& what) {
    throw ScenarioError(
        "sink 'sqlite': existing 'runs' table does not match the suite "
        "schema (" + what +
        "); appending would interleave incompatible rows — point the output "
        "at a fresh database or drop the table");
  };
  if (existing.size() != schema.size())
    mismatch("it has " + std::to_string(existing.size()) +
             " columns where the schema has " + std::to_string(schema.size()));
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const MetricSpec& spec = schema.spec(i);
    if (existing[i].first != spec.key)
      mismatch("column " + std::to_string(i) + " is '" + existing[i].first +
               "' where the schema has '" + spec.key + "'");
    if (existing[i].second != sqlite_affinity(spec.type))
      mismatch("column '" + spec.key + "' is " + existing[i].second +
               " where the schema needs " + sqlite_affinity(spec.type));
  }
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
  if (!final_path_.empty()) {
    if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0)
      throw ScenarioError("sink 'sqlite': cannot rename '" + tmp_path_ +
                          "' to '" + final_path_ + "'");
    final_path_.clear();
  }
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
                   }});
    r->add("jsonl",
           {"JSON Lines: one object per run, native numbers, keys = columns",
            [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
              return std::make_unique<JsonlSink>(config);
            }});
#if defined(COLSCORE_HAVE_SQLITE)
    r->add("sqlite",
           {"sqlite database with a typed `runs` table (INTEGER/REAL "
            "affinities; query sweeps without parsing)",
            [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
              return std::make_unique<SqliteSink>(config);
            }});
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
