// Result-sink coverage: the sink registry, each built-in sink's format, and
// the equivalence contract — a fixed-seed suite run lands the exact same
// typed values in CSV, JSONL, and sqlite. The fixed-seed scenario and its
// golden row are shared with test_determinism_csv, so a sink that perturbs
// (or reorders, or re-formats) values fails against a pinned byte string,
// not against another sink's output. Since the typed-schema refactor the
// sinks store *values* (sqlite INTEGER/REAL, native JSON numbers); the
// comparisons below render those values through the one shared formatting
// path (RunRecord::cell_text / format_metric_double) and still demand the
// golden bytes.
#include "src/sim/sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/common/json.hpp"
#include "src/sim/suite.hpp"
#include "test_util.hpp"

#if defined(COLSCORE_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace colscore {
namespace {

// The test_determinism_csv fixed-seed golden, shared via test_util.hpp.
using testutil::kGoldenRow;
using testutil::kGoldenScenario;
using testutil::split_csv_line;

/// The golden scenario's schema projected onto the default column set —
/// what every sink sees through RecordStream.
MetricSchema golden_schema() {
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(kGoldenScenario));
  const std::vector<std::string> columns = default_columns();
  return scenario_metric_schema(sc).select(columns);
}

/// Runs the golden scenario (serial, literal seed) through `sink` with the
/// default columns.
void run_golden_through(ResultSink& sink) {
  SuiteOptions options;
  options.threads = 1;
  options.derive_seeds = false;
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(kGoldenScenario));
  const MetricSchema schema = scenario_metric_schema(sc);
  const std::vector<std::string> columns = default_columns();
  RecordStream stream(sink, schema, columns);
  options.on_result = [&](const SuiteRun& run) {
    stream.write(make_run_record(run, schema));
  };
  SuiteRunner(options).run({ScenarioSpec::parse(kGoldenScenario)});
  stream.finish();
}

TEST(SinkRegistry, ListsBuiltins) {
  EXPECT_TRUE(SinkRegistry::instance().contains("csv"));
  EXPECT_TRUE(SinkRegistry::instance().contains("jsonl"));
#if defined(COLSCORE_HAVE_SQLITE)
  EXPECT_TRUE(SinkRegistry::instance().contains("sqlite"));
#endif
}

TEST(SinkRegistry, UnknownSinkNamesTheAlternatives) {
  try {
    (void)make_sink("parquet", {});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown sink 'parquet'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("csv"), std::string::npos) << msg;
  }
}

TEST(CsvSinkTest, MatchesTheDeterminismGolden) {
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  CsvSink sink(config);
  run_golden_through(sink);
  EXPECT_EQ(sink.rows_written(), 1u);
  std::istringstream lines(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(row, kGoldenRow);
}

TEST(CsvSinkTest, RejectsUnwritablePaths) {
  SinkConfig config;
  config.path = "/nonexistent-dir/out.csv";
  EXPECT_THROW(CsvSink{config}, ScenarioError);
}

TEST(JsonlSinkTest, NativeNumbersSpellTheCsvCells) {
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  JsonlSink sink(config);
  run_golden_through(sink);
  EXPECT_EQ(sink.rows_written(), 1u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(std::getline(lines, line = ""));  // exactly one row, no header

  std::istringstream first(out.str());
  ASSERT_TRUE(std::getline(first, line));
  const JsonValue row = json_parse(line);
  ASSERT_TRUE(row.is_object());
  const MetricSchema schema = golden_schema();
  const std::vector<std::string> golden = split_csv_line(kGoldenRow);
  ASSERT_EQ(row.members.size(), schema.size());
  ASSERT_EQ(golden.size(), schema.size());
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const MetricSpec& spec = schema.spec(i);
    // Keys in column order; numeric columns are native JSON numbers whose
    // source spelling is the exact CSV cell (one formatting path).
    EXPECT_EQ(row.members[i].first, spec.key);
    if (row.members[i].second.is_null()) {
      // Absent cells (the ok row's empty `error`) are JSON null; CSV spells
      // them as the empty cell.
      EXPECT_EQ(golden[i], "") << spec.key;
      continue;
    }
    EXPECT_EQ(row.members[i].second.text, golden[i]) << spec.key;
    const bool numeric = spec.type == MetricType::kU64 ||
                         spec.type == MetricType::kSize ||
                         spec.type == MetricType::kF64;
    EXPECT_EQ(row.members[i].second.is_number(), numeric) << spec.key;
    EXPECT_EQ(row.members[i].second.is_string(),
              spec.type == MetricType::kString)
        << spec.key;
  }
}

#if defined(COLSCORE_HAVE_SQLITE)

/// Reads every `runs` row back as cell text: typed values are rendered
/// through the same formatting rules as RunRecord::cell_text, so a correct
/// typed store reproduces the CSV bytes exactly (including u64 values past
/// 2^63, which sqlite holds as the same two's-complement bit pattern).
std::vector<std::vector<std::string>> read_rows_as_cells(
    const std::string& path, const MetricSchema& schema) {
  sqlite3* db = nullptr;
  EXPECT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
  sqlite3_stmt* stmt = nullptr;
  EXPECT_EQ(sqlite3_prepare_v2(db, "SELECT * FROM runs ORDER BY rowid", -1,
                               &stmt, nullptr),
            SQLITE_OK);
  std::vector<std::vector<std::string>> rows;
  while (sqlite3_step(stmt) == SQLITE_ROW) {
    EXPECT_EQ(static_cast<std::size_t>(sqlite3_column_count(stmt)),
              schema.size());
    std::vector<std::string> cells;
    for (int c = 0; c < sqlite3_column_count(stmt); ++c) {
      if (sqlite3_column_type(stmt, c) == SQLITE_NULL) {
        cells.emplace_back();
        continue;
      }
      const MetricSpec& spec = schema.spec(static_cast<std::size_t>(c));
      switch (spec.type) {
        case MetricType::kString:
          cells.emplace_back(
              reinterpret_cast<const char*>(sqlite3_column_text(stmt, c)));
          break;
        case MetricType::kU64:
        case MetricType::kSize:
          cells.push_back(std::to_string(
              static_cast<std::uint64_t>(sqlite3_column_int64(stmt, c))));
          break;
        case MetricType::kBool:
          cells.emplace_back(sqlite3_column_int(stmt, c) != 0 ? "1" : "0");
          break;
        case MetricType::kF64:
          cells.push_back(format_metric_double(sqlite3_column_double(stmt, c),
                                               spec.f64_format));
          break;
      }
    }
    rows.push_back(std::move(cells));
  }
  sqlite3_finalize(stmt);
  sqlite3_close(db);
  return rows;
}

/// `PRAGMA table_info` declared type of every `runs` column.
std::vector<std::string> read_column_affinities(const std::string& path) {
  sqlite3* db = nullptr;
  EXPECT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
  sqlite3_stmt* stmt = nullptr;
  EXPECT_EQ(sqlite3_prepare_v2(db, "PRAGMA table_info(runs)", -1, &stmt,
                               nullptr),
            SQLITE_OK);
  std::vector<std::string> types;
  while (sqlite3_step(stmt) == SQLITE_ROW)
    types.emplace_back(
        reinterpret_cast<const char*>(sqlite3_column_text(stmt, 2)));
  sqlite3_finalize(stmt);
  sqlite3_close(db);
  return types;
}

TEST(SqliteSinkTest, TypedColumnsMatchTheCsvCells) {
  const std::string path = testing::TempDir() + "colscore_sink_golden.sqlite";
  std::remove(path.c_str());
  {
    SinkConfig config;
    config.path = path;
    SqliteSink sink(config);
    run_golden_through(sink);
    EXPECT_EQ(sink.rows_written(), 1u);
  }
  const MetricSchema schema = golden_schema();
  const auto rows = read_rows_as_cells(path, schema);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], split_csv_line(kGoldenRow));

  // The acceptance point: real column affinities, not all-TEXT.
  const std::vector<std::string> affinities = read_column_affinities(path);
  ASSERT_EQ(affinities.size(), schema.size());
  for (std::size_t i = 0; i < schema.size(); ++i) {
    switch (schema.spec(i).type) {
      case MetricType::kU64:
      case MetricType::kSize:
      case MetricType::kBool:
        EXPECT_EQ(affinities[i], "INTEGER") << schema.spec(i).key;
        break;
      case MetricType::kF64:
        EXPECT_EQ(affinities[i], "REAL") << schema.spec(i).key;
        break;
      case MetricType::kString:
        EXPECT_EQ(affinities[i], "TEXT") << schema.spec(i).key;
        break;
    }
  }
  std::remove(path.c_str());
}

TEST(SqliteSinkTest, RerunReplacesTheRunsTable) {
  const std::string path = testing::TempDir() + "colscore_sink_rerun.sqlite";
  std::remove(path.c_str());
  MetricSchema schema;
  schema.add({"a", MetricType::kString, "", "test"});
  schema.add({"b", MetricType::kString, "", "test"});
  for (int i = 0; i < 2; ++i) {
    SinkConfig config;
    config.path = path;
    SqliteSink sink(config);
    sink.begin(schema);
    RunRecord record(&schema);
    record.set_string("a", "1");
    record.set_string("b", "2");
    sink.write(record);
    sink.finish();
  }
  // Dropped and recreated, not appended.
  EXPECT_EQ(read_rows_as_cells(path, schema).size(), 1u);
  std::remove(path.c_str());
}

TEST(SqliteSinkTest, RequiresAnOutputPath) {
  try {
    (void)make_sink("sqlite", {});
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("writes a database file"),
              std::string::npos)
        << e.what();
  }
}

#endif  // COLSCORE_HAVE_SQLITE

// ---- cross-sink equivalence (the satellite acceptance) ----------------------

TEST(SinkEquivalence, FixedSeedSuiteIsIdenticalAcrossSinks) {
  // A small multi-cell suite with reps: every sink must observe the exact
  // same typed values in the exact same order. Derived seeds are full
  // 64-bit, so this also exercises u64 columns past 2^63 through sqlite's
  // signed INTEGER storage.
  SuiteOptions options;
  options.threads = 1;
  options.reps = 2;
  const std::vector<ScenarioSpec> specs = expand_grid(
      ScenarioSpec::parse("n=48 budget=4 dishonest=4 opt=0"),
      parse_grid("adversary=none,sleeper"));
  const MetricSchema schema = suite_metric_schema(specs);
  const std::vector<std::string> columns =
      default_columns(false, /*include_rep=*/true);

  auto run_collecting = [&](ResultSink& sink) {
    SuiteOptions local = options;
    RecordStream stream(sink, schema, columns);
    local.on_result = [&](const SuiteRun& run) {
      stream.write(make_run_record(run, schema));
    };
    SuiteRunner(local).run(specs);
    stream.finish();
  };

  std::ostringstream csv_out;
  SinkConfig csv_config;
  csv_config.stream = &csv_out;
  CsvSink csv_sink(csv_config);
  run_collecting(csv_sink);

  std::ostringstream jsonl_out;
  SinkConfig jsonl_config;
  jsonl_config.stream = &jsonl_out;
  JsonlSink jsonl_sink(jsonl_config);
  run_collecting(jsonl_sink);

  // Collect CSV data rows (skip the header).
  std::vector<std::vector<std::string>> csv_rows;
  {
    std::istringstream lines(csv_out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));  // header
    while (std::getline(lines, line)) csv_rows.push_back(split_csv_line(line));
  }
  ASSERT_EQ(csv_rows.size(), 4u);  // 2 cells x 2 reps

  // JSONL rows carry the same cell spellings in the same order (native
  // numbers keep the CSV text as their source spelling).
  std::vector<std::vector<std::string>> jsonl_rows;
  {
    std::istringstream lines(jsonl_out.str());
    std::string line;
    while (std::getline(lines, line)) {
      const JsonValue row = json_parse(line);
      std::vector<std::string> cells;
      for (const auto& [key, value] : row.members)
        cells.push_back(value.is_null() ? "" : value.text);
      jsonl_rows.push_back(std::move(cells));
    }
  }
  EXPECT_EQ(jsonl_rows, csv_rows);

#if defined(COLSCORE_HAVE_SQLITE)
  const std::string path = testing::TempDir() + "colscore_sink_equiv.sqlite";
  std::remove(path.c_str());
  {
    SinkConfig config;
    config.path = path;
    SqliteSink sqlite_sink(config);
    run_collecting(sqlite_sink);
  }
  EXPECT_EQ(read_rows_as_cells(path, schema.select(columns)), csv_rows);
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace colscore
