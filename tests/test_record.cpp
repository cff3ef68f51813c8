// Metric-schema coverage: schema-driven cells against the pinned determinism
// goldens, typed jsonl/sqlite round-trips (u64 past 2^53, non-finite
// doubles), column selection errors, per-cell summary aggregation, and the
// end-to-end acceptance — a registry entry declaring its own metric surfaces
// it through every sink via column selection.
#include "src/sim/record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/common/json.hpp"
#include "src/model/behavior.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suite.hpp"
#include "src/sim/suitefile.hpp"
#include "test_util.hpp"

#if defined(COLSCORE_HAVE_SQLITE)
#include <sqlite3.h>
#endif

namespace colscore {
namespace {

using testutil::kGoldenRow;
using testutil::kGoldenScenario;
using testutil::split_csv_line;

/// Runs `spec_text` serially with its literal seed and returns the SuiteRun.
SuiteRun run_one(const std::string& spec_text) {
  SuiteOptions options;
  options.threads = 1;
  options.derive_seeds = false;
  std::vector<SuiteRun> runs =
      SuiteRunner(options).run({ScenarioSpec::parse(spec_text)});
  return std::move(runs.front());
}

/// Sink that keeps the typed values and rendered cells of every row.
struct CaptureSink : ResultSink {
  MetricSchema schema;
  std::vector<std::vector<MetricValue>> values;
  std::vector<std::vector<std::string>> cells;

  void begin(const MetricSchema& s) override { schema = s; }
  void write(const RunRecord& record) override {
    std::vector<MetricValue> row;
    for (std::size_t i = 0; i < record.size(); ++i)
      row.push_back(record.value(i));
    values.push_back(std::move(row));
    cells.push_back(record.cells());
    ++rows_;
  }
};

// ---- golden compatibility ---------------------------------------------------

TEST(RunRecordTest, DefaultColumnCellsMatchTheDeterminismGolden) {
  const SuiteRun run = run_one(kGoldenScenario);
  const MetricSchema schema = scenario_metric_schema(run.scenario);
  const RunRecord record = make_run_record(run, schema);

  const std::vector<std::string> columns = default_columns();
  const std::vector<std::string> golden = split_csv_line(kGoldenRow);
  EXPECT_EQ(suite_row_cells(run), golden);
  ASSERT_EQ(columns.size(), golden.size());
  for (std::size_t i = 0; i < columns.size(); ++i)
    EXPECT_EQ(record.cell_text(schema.index_of(columns[i])), golden[i])
        << columns[i];
}

TEST(RunRecordTest, DiagnosticsThatWereDroppedAreNowDeclared) {
  // The previously invisible ExperimentOutcome fields are schema columns.
  const SuiteRun run = run_one(kGoldenScenario);
  const MetricSchema schema = scenario_metric_schema(run.scenario);
  const RunRecord record = make_run_record(run, schema);

  EXPECT_EQ(record.value("honest_players").as_u64(),
            run.outcome.honest_players);
  EXPECT_EQ(record.value("board_vectors").as_u64(), run.outcome.board_vectors);
  EXPECT_EQ(record.value("planted_diameter").as_u64(),
            run.outcome.planted_diameter);
  EXPECT_EQ(record.value("easy_case").as_bool(), run.outcome.easy_case);
  EXPECT_EQ(record.value("iterations").as_u64(),
            run.outcome.iterations.size());
  // OPT was computed for the golden scenario, so the bracket is present.
  EXPECT_TRUE(record.value("opt_max_radius").has_value());
  EXPECT_EQ(record.value("opt_max_radius").as_u64(),
            run.outcome.opt.max_radius);
  // Not-applicable diagnostics stay absent, never a misleading 0: the
  // golden run elects no leaders; a robust run reports the statistic.
  EXPECT_FALSE(record.value("honest_leader_reps").has_value());
  const SuiteRun robust =
      run_one("algorithm=robust n=48 budget=4 reps=2 opt=0");
  const MetricSchema robust_schema = scenario_metric_schema(robust.scenario);
  const RunRecord robust_record = make_run_record(robust, robust_schema);
  ASSERT_TRUE(robust_record.value("honest_leader_reps").has_value());
  EXPECT_EQ(robust_record.value("honest_leader_reps").as_u64(),
            robust.outcome.honest_leader_reps);

  // Every declared column carries a type/origin/description for
  // --list-columns.
  for (const MetricSpec& spec : schema.specs()) {
    EXPECT_FALSE(spec.origin.empty()) << spec.key;
    EXPECT_FALSE(spec.description.empty()) << spec.key;
  }
}

TEST(RunRecordTest, VictimErrIsPlayerZerosError) {
  // probe_all reads every bit, so player 0's output is exact.
  const SuiteRun exact = run_one("algorithm=probe_all n=48 budget=4 opt=0");
  const MetricSchema exact_schema = scenario_metric_schema(exact.scenario);
  EXPECT_EQ(make_run_record(exact, exact_schema).value("victim_err").as_u64(),
            0u);
  // Player 0 is the hijackers' target and stays honest, so its error is
  // one of those max_err ranges over.
  const SuiteRun hijacked = run_one(
      "adversary=hijacker n=128 budget=4 diameter=8 dishonest=10 opt=0");
  const MetricSchema schema = scenario_metric_schema(hijacked.scenario);
  const RunRecord record = make_run_record(hijacked, schema);
  ASSERT_TRUE(hijacked.outcome.victim_error.has_value());
  EXPECT_EQ(record.value("victim_err").as_u64(),
            *hijacked.outcome.victim_error);
  EXPECT_LE(record.value("victim_err").as_u64(),
            record.value("max_err").as_u64());
  // A run without players has no player 0 and no row: resolve rejects n=0.
  EXPECT_THROW((void)Scenario::resolve(
                   ScenarioSpec::parse("workload=uniform n=0 opt=0")),
               ScenarioError);
  // A diagnostic: declared, but not one of the default columns.
  ASSERT_NE(schema.find("victim_err"), nullptr);
  EXPECT_EQ(schema.find("victim_err")->origin, "diagnostic");
  const std::vector<std::string> defaults = default_columns(true, true);
  EXPECT_EQ(std::count(defaults.begin(), defaults.end(), "victim_err"), 0);
}

TEST(FormatMetricDouble, HistoricalAndRoundTrip) {
  // Historical = the seed CLI's default-precision ostream bytes (pinned by
  // the goldens); round-trip = shortest exact spelling.
  EXPECT_EQ(format_metric_double(3.9416666666666667, F64Format::kHistorical),
            "3.94167");
  EXPECT_EQ(format_metric_double(0.0, F64Format::kHistorical), "0");
  EXPECT_EQ(format_metric_double(0.1, F64Format::kRoundTrip), "0.1");
  const double third = 7.0 / 3.0;
  EXPECT_EQ(std::stod(format_metric_double(third, F64Format::kRoundTrip)),
            third);
  EXPECT_EQ(format_metric_double(std::nan(""), F64Format::kRoundTrip), "nan");
}

// ---- typed round-trips ------------------------------------------------------

MetricSchema round_trip_schema() {
  MetricSchema schema;
  schema.add({"big", MetricType::kU64, "u64 past double precision", "test"});
  schema.add({"huge", MetricType::kU64, "u64 past int64 range", "test"});
  schema.add({"weird", MetricType::kF64, "non-finite double", "test"});
  schema.add({"flag", MetricType::kBool, "a boolean", "test"});
  schema.add({"label", MetricType::kString, "a string", "test"});
  schema.add({"gone", MetricType::kF64, "never set", "test"});
  return schema;
}

constexpr std::uint64_t kBig = (1ULL << 53) + 1;       // 9007199254740993
constexpr std::uint64_t kHuge = (1ULL << 63) + 5;      // past int64

RunRecord round_trip_record(const MetricSchema& schema) {
  RunRecord record(&schema);
  record.set_u64("big", kBig);
  record.set_u64("huge", kHuge);
  record.set_f64("weird", std::numeric_limits<double>::quiet_NaN());
  record.set_bool("flag", true);
  record.set_string("label", "planted");
  return record;
}

TEST(TypedRoundTrip, JsonlKeepsU64DigitsAndQuotesNonFinite) {
  const MetricSchema schema = round_trip_schema();
  std::ostringstream out;
  SinkConfig config;
  config.stream = &out;
  JsonlSink sink(config);
  sink.begin(schema);
  sink.write(round_trip_record(schema));
  sink.finish();

  const JsonValue row = json_parse(out.str());
  ASSERT_TRUE(row.is_object());
  // u64 >= 2^53 must not round through a double: the JSON number's source
  // spelling carries every digit.
  ASSERT_TRUE(row.find("big") != nullptr);
  EXPECT_TRUE(row.find("big")->is_number());
  EXPECT_EQ(row.find("big")->text, std::to_string(kBig));
  EXPECT_EQ(row.find("huge")->text, std::to_string(kHuge));
  // JSON has no nan literal; the non-finite double is a quoted spelling.
  EXPECT_TRUE(row.find("weird")->is_string());
  EXPECT_EQ(row.find("weird")->text, "nan");
  EXPECT_TRUE(row.find("flag")->is_bool());
  EXPECT_TRUE(row.find("flag")->boolean);
  EXPECT_EQ(row.find("label")->text, "planted");
  EXPECT_TRUE(row.find("gone")->is_null());
}

#if defined(COLSCORE_HAVE_SQLITE)
TEST(TypedRoundTrip, SqliteStoresExactIntegersAndNonFiniteDoubles) {
  const MetricSchema schema = round_trip_schema();
  const std::string path = testing::TempDir() + "colscore_record_rt.sqlite";
  std::remove(path.c_str());
  {
    SinkConfig config;
    config.path = path;
    SqliteSink sink(config);
    sink.begin(schema);
    sink.write(round_trip_record(schema));
    sink.finish();
  }

  sqlite3* db = nullptr;
  ASSERT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
  sqlite3_stmt* stmt = nullptr;
  ASSERT_EQ(sqlite3_prepare_v2(
                db, "SELECT big, huge, weird, flag, label, gone FROM runs",
                -1, &stmt, nullptr),
            SQLITE_OK);
  ASSERT_EQ(sqlite3_step(stmt), SQLITE_ROW);
  // INTEGER storage is exact for the full 64-bit range (two's complement);
  // casting back recovers the u64 bit-for-bit — no text, no double detour.
  EXPECT_EQ(sqlite3_column_type(stmt, 0), SQLITE_INTEGER);
  EXPECT_EQ(static_cast<std::uint64_t>(sqlite3_column_int64(stmt, 0)), kBig);
  EXPECT_EQ(static_cast<std::uint64_t>(sqlite3_column_int64(stmt, 1)), kHuge);
  // sqlite stores NaN as NULL (it has no NaN REAL); accept either a NULL or
  // a NaN read-back, but never a silent 0.0 from a FLOAT column.
  const int weird_type = sqlite3_column_type(stmt, 2);
  EXPECT_TRUE(weird_type == SQLITE_NULL ||
              std::isnan(sqlite3_column_double(stmt, 2)))
      << weird_type;
  EXPECT_EQ(sqlite3_column_int(stmt, 3), 1);
  EXPECT_STREQ(
      reinterpret_cast<const char*>(sqlite3_column_text(stmt, 4)), "planted");
  EXPECT_EQ(sqlite3_column_type(stmt, 5), SQLITE_NULL);  // absent metric
  sqlite3_finalize(stmt);
  sqlite3_close(db);
  std::remove(path.c_str());
}
#endif  // COLSCORE_HAVE_SQLITE

// ---- column selection -------------------------------------------------------

TEST(ColumnSelection, UnknownColumnNamesTheAvailableKeys) {
  const MetricSchema schema =
      scenario_metric_schema(Scenario::resolve(ScenarioSpec{}));
  const std::vector<std::string> wanted{"n", "frobnicate"};
  try {
    (void)schema.select(wanted);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown column 'frobnicate'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("available:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("board_vectors"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)schema.select(std::vector<std::string>{"n", "n"}),
               ScenarioError);
}

TEST(ColumnSelection, ParseColumnListSplitsAndTrims) {
  EXPECT_EQ(parse_column_list("a, b ,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_THROW(parse_column_list("a,,b"), ScenarioError);
  EXPECT_THROW(parse_column_list("a,b,"), ScenarioError);  // trailing comma
  EXPECT_THROW(parse_column_list(""), ScenarioError);
}

TEST(ColumnSelection, SuiteFileValidatesColumnsAtParseTime) {
  try {
    (void)parse_suite_file(
        R"({"base": {"n": 48, "opt": false}, "columns": ["n", "bogus"]})",
        "cols.json");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("suite file 'cols.json'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown column 'bogus'"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)parse_suite_file(R"({"summary": "median"})", "s.json"),
               ScenarioError);
  // A comma string is accepted and split like --columns.
  const SuiteFile file = parse_suite_file(
      R"({"base": {"n": 48, "opt": false}, "columns": "n,seed,max_err",
          "summary": "mean"})",
      "ok.json");
  EXPECT_EQ(file.columns, (std::vector<std::string>{"n", "seed", "max_err"}));
  EXPECT_EQ(file.summary, SummaryStat::kMean);
}

// ---- summary aggregation ----------------------------------------------------

TEST(SummaryAggregation, MeanMinMaxOverSyntheticRecords) {
  MetricSchema schema;
  schema.add({"u", MetricType::kU64, "", "test"});
  schema.add({"d", MetricType::kF64, "", "test"});
  schema.add({"s", MetricType::kString, "", "test"});
  MetricSpec historical{"h", MetricType::kF64, "", "test"};
  historical.f64_format = F64Format::kHistorical;
  schema.add(historical);
  std::vector<RunRecord> cell;
  const std::uint64_t us[] = {1, 2, 4};
  const double ds[] = {0.5, 1.5, 2.5};
  const double hs[] = {1.0, 1.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    RunRecord r(&schema);
    r.set_u64("u", us[i]);
    r.set_f64("d", ds[i]);
    r.set_string("s", "same");
    r.set_f64("h", hs[i]);
    cell.push_back(std::move(r));
  }

  const MetricSchema mean_schema = summarized_schema(schema, SummaryStat::kMean);
  EXPECT_EQ(mean_schema.spec(0).type, MetricType::kF64);  // u64 widens
  // A mean keeps every digit, also of a column whose per-run cells keep
  // the 6-digit historical spelling.
  EXPECT_EQ(mean_schema.spec(3).f64_format, F64Format::kRoundTrip);
  const RunRecord mean =
      summarize_records(mean_schema, cell, SummaryStat::kMean);
  EXPECT_DOUBLE_EQ(mean.value("u").as_f64(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(mean.value("d").as_f64(), 1.5);
  EXPECT_EQ(mean.value("s").as_string(), "same");  // non-numeric: first value
  EXPECT_EQ(mean.cell_text(3), format_metric_double(4.0 / 3.0));

  const MetricSchema mm_schema = summarized_schema(schema, SummaryStat::kMin);
  EXPECT_EQ(mm_schema.spec(0).type, MetricType::kU64);  // min/max keep types
  EXPECT_EQ(mm_schema.spec(3).f64_format, F64Format::kHistorical);
  const RunRecord min = summarize_records(mm_schema, cell, SummaryStat::kMin);
  EXPECT_EQ(min.value("u").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(min.value("d").as_f64(), 0.5);
  const RunRecord max = summarize_records(mm_schema, cell, SummaryStat::kMax);
  EXPECT_EQ(max.value("u").as_u64(), 4u);
  EXPECT_DOUBLE_EQ(max.value("d").as_f64(), 2.5);
}

TEST(SummaryAggregation, OneRowPerCellOverARealRepsSuite) {
  // reps=3 over two cells: the stream emits 2 summary rows whose means match
  // the per-run outcomes.
  SuiteOptions options;
  options.threads = 1;
  options.reps = 3;
  const std::vector<ScenarioSpec> specs = expand_grid(
      ScenarioSpec::parse("n=48 budget=4 dishonest=4 opt=0"),
      parse_grid("adversary=none,sleeper"));
  const MetricSchema schema = suite_metric_schema(specs);
  const std::vector<std::string> columns{"adversary", "max_err",
                                         "total_probes", "mean_err", "seed"};

  CaptureSink sink;
  RecordStream stream(sink, schema, columns,
                      RecordStream::Options{SummaryStat::kMean, options.reps});
  options.on_result = [&](const SuiteRun& run) {
    stream.write(make_run_record(run, schema));
  };
  const std::vector<SuiteRun> runs = SuiteRunner(options).run(specs);
  stream.finish();

  ASSERT_EQ(runs.size(), 6u);
  ASSERT_EQ(sink.rows_written(), 2u);  // one row per cell, not per rep
  ASSERT_EQ(sink.schema.size(), columns.size());
  EXPECT_EQ(sink.schema.spec(1).type, MetricType::kF64);  // max_err widened
  for (std::size_t cell = 0; cell < 2; ++cell) {
    double err_sum = 0.0;
    double probe_sum = 0.0;
    for (std::size_t r = 0; r < 3; ++r) {
      err_sum += static_cast<double>(runs[cell * 3 + r].outcome.error.max_error);
      probe_sum +=
          static_cast<double>(runs[cell * 3 + r].outcome.total_probes);
    }
    EXPECT_EQ(sink.values[cell][0].as_string(),
              cell == 0 ? "none" : "sleeper");
    EXPECT_DOUBLE_EQ(sink.values[cell][1].as_f64(), err_sum / 3.0);
    EXPECT_DOUBLE_EQ(sink.values[cell][2].as_f64(), probe_sum / 3.0);
    // Run-identity columns stay absent in a summary row: a "mean seed"
    // names no run anyone could reproduce.
    EXPECT_FALSE(sink.values[cell][4].has_value());
    EXPECT_EQ(sink.schema.spec(4).type, MetricType::kU64);  // not widened
  }
}

// ---- entry-declared metrics (the acceptance) --------------------------------

/// Registers (once) a test adversary that declares two metrics and publishes
/// them from the run context: the probes charged to dishonest players and a
/// free-form label.
const char* ensure_metric_adversary() {
  static const char* name = [] {
    AdversaryRegistry::instance().add(
        "record_probe_counter",
        {"sleeper twin that publishes custom metrics (test entry)",
         [](const Scenario&, const World&, PlayerId) {
           return std::make_unique<Sleeper>();
         },
         /*defaults=*/{},
         /*schema=*/{},
         /*metrics=*/
         {{"corrupted_probes", MetricType::kU64,
           "probes charged to dishonest players"},
          {"attack_label", MetricType::kString, "free-form attack tag"}},
         /*emit_metrics=*/
         [](const MetricContext& ctx, MetricEmitter& emit) {
           std::uint64_t corrupted = 0;
           for (PlayerId p = 0; p < ctx.scenario.n; ++p)
             if (!ctx.population.is_honest(p))
               corrupted += ctx.oracle.probes_by(p);
           emit.u64("corrupted_probes", corrupted);
           emit.string("attack_label", "sleeper-twin");
         }});
    return "record_probe_counter";
  }();
  return name;
}

TEST(EntryMetrics, SurfaceThroughEverySinkViaColumnSelection) {
  ensure_metric_adversary();
  const std::string spec_text =
      "n=48 budget=4 dishonest=4 adversary=record_probe_counter opt=0 seed=9";
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(spec_text));
  const MetricSchema schema = scenario_metric_schema(sc);

  // The entry's metrics are in the schema with the declaring origin.
  ASSERT_NE(schema.find("corrupted_probes"), nullptr);
  EXPECT_EQ(schema.find("corrupted_probes")->origin,
            "adversary 'record_probe_counter'");

  // The spec-level suite schema sees entries a grid axis sweeps in (what
  // --list-columns and grid runs build from), deduped per entry triple.
  const MetricSchema swept = suite_metric_schema(expand_grid(
      ScenarioSpec::parse("n=48 budget=4 dishonest=4 opt=0"),
      parse_grid("adversary=none,record_probe_counter")));
  EXPECT_NE(swept.find("corrupted_probes"), nullptr);

  const std::vector<std::string> columns{"adversary", "corrupted_probes",
                                         "attack_label"};
  auto run_through = [&](ResultSink& sink) {
    SuiteOptions options;
    options.threads = 1;
    options.derive_seeds = false;
    RecordStream stream(sink, schema, columns);
    options.on_result = [&](const SuiteRun& run) {
      stream.write(make_run_record(run, schema));
    };
    SuiteRunner(options).run({ScenarioSpec::parse(spec_text)});
    stream.finish();
  };

  // The typed value itself (honest-pays: dishonest Sleepers peek for free
  // during their own reads but are charged for protocol-driven probes).
  CaptureSink capture;
  run_through(capture);
  ASSERT_EQ(capture.rows_written(), 1u);
  ASSERT_TRUE(capture.values[0][1].has_value());
  const std::uint64_t corrupted = capture.values[0][1].as_u64();
  const std::string corrupted_text = std::to_string(corrupted);
  EXPECT_EQ(capture.values[0][2].as_string(), "sleeper-twin");

  // CSV.
  std::ostringstream csv_out;
  SinkConfig csv_config;
  csv_config.stream = &csv_out;
  CsvSink csv(csv_config);
  run_through(csv);
  EXPECT_EQ(csv_out.str(),
            "adversary,corrupted_probes,attack_label\n"
            "record_probe_counter," + corrupted_text + ",sleeper-twin\n");

  // JSONL (native number for the u64 metric).
  std::ostringstream jsonl_out;
  SinkConfig jsonl_config;
  jsonl_config.stream = &jsonl_out;
  JsonlSink jsonl(jsonl_config);
  run_through(jsonl);
  const JsonValue row = json_parse(jsonl_out.str());
  ASSERT_NE(row.find("corrupted_probes"), nullptr);
  EXPECT_TRUE(row.find("corrupted_probes")->is_number());
  EXPECT_EQ(row.find("corrupted_probes")->text, corrupted_text);

#if defined(COLSCORE_HAVE_SQLITE)
  const std::string path = testing::TempDir() + "colscore_record_entry.sqlite";
  std::remove(path.c_str());
  {
    SinkConfig config;
    config.path = path;
    SqliteSink sqlite_sink(config);
    run_through(sqlite_sink);
  }
  sqlite3* db = nullptr;
  ASSERT_EQ(sqlite3_open(path.c_str(), &db), SQLITE_OK);
  sqlite3_stmt* stmt = nullptr;
  ASSERT_EQ(sqlite3_prepare_v2(db, "SELECT corrupted_probes FROM runs", -1,
                               &stmt, nullptr),
            SQLITE_OK);
  ASSERT_EQ(sqlite3_step(stmt), SQLITE_ROW);
  EXPECT_EQ(sqlite3_column_type(stmt, 0), SQLITE_INTEGER);
  EXPECT_EQ(static_cast<std::uint64_t>(sqlite3_column_int64(stmt, 0)),
            corrupted);
  sqlite3_finalize(stmt);
  sqlite3_close(db);
  std::remove(path.c_str());
#endif
}

TEST(EntryMetrics, RegistrationRejectsReservedAndDuplicateKeys) {
  EXPECT_TRUE(is_reserved_metric_key("seed"));
  EXPECT_TRUE(is_reserved_metric_key("board_vectors"));
  EXPECT_FALSE(is_reserved_metric_key("corrupted_probes"));

  AdversaryEntry shadowing{"shadows a builtin column", nullptr};
  shadowing.metrics = {{"seed", MetricType::kU64, ""}};
  try {
    AdversaryRegistry::instance().add("record_bad_shadow", shadowing);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("shadows a built-in result column"),
              std::string::npos)
        << e.what();
  }

  AdversaryEntry twice{"declares a metric twice", nullptr};
  twice.metrics = {{"x", MetricType::kU64, ""}, {"x", MetricType::kU64, ""}};
  EXPECT_THROW(AdversaryRegistry::instance().add("record_bad_twice", twice),
               ScenarioError);

  AdversaryEntry hook_only{"emit hook without declarations", nullptr};
  hook_only.emit_metrics = [](const MetricContext&, MetricEmitter&) {};
  EXPECT_THROW(
      AdversaryRegistry::instance().add("record_bad_hook", hook_only),
      ScenarioError);
}

TEST(EntryMetrics, TwoEntriesEmittingTheSameKeyFailLoudly) {
  // Declaring the same key with the same type is legal across entries (a
  // suite schema is the union), but one run publishing it from two hooks is
  // ambiguous — run_scenario must refuse instead of overwriting.
  const std::vector<MetricSpec> dup{{"dup_m", MetricType::kU64, "shared key"}};
  const auto emit_dup = [](const MetricContext&, MetricEmitter& emit) {
    emit.u64("dup_m", 1);
  };
  WorkloadRegistry::instance().add(
      "record_dup_wl", {"uniform twin emitting dup_m (test entry)",
                        [](const Scenario& sc, Rng& rng, const ExecPolicy&) {
                          return uniform_random(sc.n, sc.n, rng);
                        },
                        {}, {}, dup, emit_dup});
  AdversaryRegistry::instance().add(
      "record_dup_adv", {"sleeper twin emitting dup_m (test entry)",
                         [](const Scenario&, const World&, PlayerId) {
                           return std::make_unique<Sleeper>();
                         },
                         {}, {}, dup, emit_dup});
  const Scenario sc = Scenario::resolve(ScenarioSpec::parse(
      "workload=record_dup_wl adversary=record_dup_adv n=48 budget=4 "
      "dishonest=4 opt=0"));
  try {
    (void)run_scenario(sc);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload 'record_dup_wl'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("adversary 'record_dup_adv'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("both emitted metric 'dup_m'"), std::string::npos) << msg;
  }
}

TEST(EntryMetrics, EmitterRejectsUndeclaredKeysAndWrongKinds) {
  const std::vector<MetricSpec> declared{
      {"a", MetricType::kU64, "declared metric"}};
  MetricEmitter emitter(declared, "adversary 'x'");
  try {
    emitter.u64("b", 1);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("adversary 'x' emitted undeclared metric 'b'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("declared: a"), std::string::npos) << msg;
  }
  EXPECT_THROW(emitter.string("a", "nope"), ScenarioError);  // wrong kind
  emitter.u64("a", 7);
  EXPECT_THROW(emitter.u64("a", 8), ScenarioError);  // emitted twice
}

}  // namespace
}  // namespace colscore
