// Crash/resume coverage. A fault-injected suite (three throwing runs)
// degrades to failure rows and a nonzero failure count; --resume re-runs
// exactly the failed rows and the merged artifact is byte-identical to an
// uninterrupted run, for every file sink, with the default columns and with
// a selection holding a bool column. A torn text tail and an older
// artifact's timeout row are re-run the same way. A SIGKILLed CLI
// subprocess leaves the durable PATH.tmp partial artifact, and resuming it
// completes to the same bytes. Schema-mismatched sqlite databases and
// summarized artifacts are rejected with named errors, and each sink's
// artifact reader names the line and token of a malformed row.
#include "src/sim/resume.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/fault.hpp"
#include "src/sim/sink.hpp"
#include "src/sim/suitefile.hpp"

#if defined(__unix__)
#include <csignal>
#include <sys/wait.h>
#endif

namespace colscore {
namespace {

// 18 runs: 6 cells (2 n x 3 adversaries) x 3 reps.
constexpr char kSuiteText[] = R"({
  "name": "resume-acceptance",
  "base": {"workload": "planted", "budget": 4, "dishonest": 4, "opt": false},
  "grids": ["n=48,64 x adversary=none,sleeper,random_liar"],
  "reps": 3,
  "threads": 1
})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

/// Runs the acceptance suite into `path` through `sink`, optionally fault
/// injected, optionally resuming `resume_from`, optionally with a column
/// selection.
std::vector<SuiteRun> run_acceptance(const std::string& sink,
                                     const std::string& path,
                                     const std::string& faults = "",
                                     const std::string& resume_from = "",
                                     const std::vector<std::string>& columns = {}) {
  SuiteFile file = parse_suite_file(kSuiteText, "resume.json");
  file.sink = sink;
  file.output = path;
  file.faults = faults;
  file.columns = columns;
  SuiteFileOverrides overrides;
  if (!resume_from.empty()) overrides.resume = resume_from;
  return run_suite_file(file, overrides);
}

/// The identity columns plus the bool diagnostic easy_case: resuming this
/// selection decodes a bool cell through every sink's reader.
const std::vector<std::string> kBoolColumns = {
    "workload", "algorithm", "adversary", "n",         "budget", "diameter",
    "dishonest", "seed",     "rep",       "easy_case", "status", "error"};

/// The acceptance contract for one sink and column selection: 3 throws
/// leave 15 ok rows + 3 failure rows and a nonzero failure count; resume
/// re-runs only those 3 and the merged artifact is byte-identical to a
/// clean run's.
void check_sink_resume_equivalence(const std::string& sink,
                                   const std::string& suffix,
                                   const std::vector<std::string>& columns) {
  const std::string clean = temp_path("resume_clean" + suffix);
  const std::string faulty = temp_path("resume_faulty" + suffix);

  ASSERT_EQ(suite_failure_count(run_acceptance(sink, clean, "", "", columns)),
            0u);

  const std::vector<SuiteRun> first =
      run_acceptance(sink, faulty, "throw@3,throw@7,throw@11", "", columns);
  ASSERT_EQ(first.size(), 18u);
  EXPECT_EQ(suite_failure_count(first), 3u);
  for (const std::size_t i : {3u, 7u, 11u})
    EXPECT_EQ(first[i].status, RunStatus::kFailed) << i;

  const std::vector<SuiteRun> second =
      run_acceptance(sink, faulty, "", faulty, columns);
  EXPECT_EQ(suite_failure_count(second), 0u);
  // Exactly the 3 failed runs re-ran; the 15 complete rows were replayed.
  std::size_t reran = 0;
  for (const SuiteRun& run : second)
    if (run.status != RunStatus::kSkipped) ++reran;
  EXPECT_EQ(reran, 3u);

  EXPECT_EQ(read_file(faulty), read_file(clean)) << sink;
  std::remove(clean.c_str());
  std::remove(faulty.c_str());
}

void check_sink_resume_equivalence(const std::string& sink,
                                   const std::string& suffix) {
  check_sink_resume_equivalence(sink, suffix, {});
  check_sink_resume_equivalence(sink, ".bool" + suffix, kBoolColumns);
}

TEST(ResumeEquivalence, JsonlMergesByteIdentical) {
  check_sink_resume_equivalence("jsonl", ".jsonl");
}

TEST(ResumeEquivalence, CsvMergesByteIdentical) {
  check_sink_resume_equivalence("csv", ".csv");
}

#if defined(COLSCORE_HAVE_SQLITE)
TEST(ResumeEquivalence, SqliteMergesByteIdentical) {
  check_sink_resume_equivalence("sqlite", ".sqlite");
}
#endif

// ---- damaged rows -----------------------------------------------------------

/// Replaces the one occurrence of `from` in `text` with `to`.
void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  ASSERT_EQ(text.find(from, at + 1), std::string::npos) << from;
  text.replace(at, from.size(), to);
}

TEST(ResumeDamage, TornTailAndTimeoutRowsAreReRun) {
  const std::string path = temp_path("resume_damaged.jsonl");
  const std::string clean = temp_path("resume_damaged_clean.jsonl");
  ASSERT_EQ(suite_failure_count(run_acceptance("jsonl", clean)), 0u);

  // Crash mid-write: chop the final row somewhere inside, newline lost.
  const std::string full = read_file(clean);
  const std::size_t cut = full.rfind('\n', full.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  const std::string torn = full.substr(0, cut + 1 + 20);  // 20 bytes of it

  // A timeout row as binaries with post-hoc timeouts wrote it: identity
  // cells, status "timeout", the error text, no results. Run 7's failure row
  // differs from it only in the status and error cells.
  ASSERT_EQ(suite_failure_count(run_acceptance("jsonl", path, "throw@7")), 1u);
  std::string timeout = read_file(path);
  replace_once(timeout, "\"status\":\"failed\"", "\"status\":\"timeout\"");
  replace_once(timeout, "injected fault: throw at run 7",
               "run exceeded timeout_s=0.150000");

  for (const std::string& damaged : {torn, timeout}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << damaged;
    }
    const std::vector<SuiteRun> resumed =
        run_acceptance("jsonl", path, "", path);
    EXPECT_EQ(suite_failure_count(resumed), 0u);
    std::size_t reran = 0;
    for (const SuiteRun& run : resumed)
      if (run.status != RunStatus::kSkipped) ++reran;
    EXPECT_EQ(reran, 1u);  // only the damaged row
    EXPECT_EQ(read_file(path), read_file(clean));
  }
  std::remove(path.c_str());
  std::remove(clean.c_str());
}

// ---- named rejections -------------------------------------------------------

TEST(ResumeErrors, MissingArtifactIsNamed) {
  try {
    (void)run_acceptance("jsonl", temp_path("resume_missing.jsonl"), "",
                         "/nonexistent/prior.jsonl");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("resume '"), std::string::npos)
        << e.what();
  }
}

TEST(ResumeErrors, ForeignArtifactRowsAreNamed) {
  // An artifact from a *different* sweep must not silently merge.
  const std::string path = temp_path("resume_foreign.jsonl");
  {
    SuiteFile other = parse_suite_file(
        R"({"base": {"workload": "planted", "n": 96, "budget": 4,
                     "dishonest": 4, "opt": false},
            "reps": 3, "threads": 1})",
        "other.json");
    other.sink = "jsonl";
    other.output = path;
    (void)run_suite_file(other);
  }
  try {
    (void)run_acceptance("jsonl", path, "", path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(
        std::string(e.what()).find("does not correspond to any planned run"),
        std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ResumeErrors, SummarizedArtifactsCannotResume) {
  SuiteFile summarized = parse_suite_file(kSuiteText, "resume.json");
  summarized.sink = "jsonl";
  summarized.output = temp_path("resume_summary.jsonl");
  summarized.summary = SummaryStat::kMean;
  SuiteFileOverrides overrides;
  overrides.resume = "whatever.jsonl";
  try {
    (void)run_suite_file(summarized, overrides);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("summar"), std::string::npos)
        << e.what();
  }
}

// ---- artifact readers: one case per error class -----------------------------

/// One column of each text-decoded kind; the header is "n,mean,name,easy".
const MetricSchema& reader_schema() {
  static const MetricSchema schema = [] {
    MetricSchema s;
    s.add({"n", MetricType::kSize, "", "test"});
    s.add({"mean", MetricType::kF64, "", "test"});
    s.add({"name", MetricType::kString, "", "test"});
    s.add({"easy", MetricType::kBool, "", "test"});
    return s;
  }();
  return schema;
}

/// Writes `text` as a `sink` artifact and expects its reader to fail with
/// "resume 'PATH': line N: ..." naming `token`.
void expect_reader_error(const std::string& sink, const std::string& text,
                         std::size_t line, const std::string& token) {
  const std::string path = temp_path("resume_reader." + sink);
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  try {
    (void)load_prior_output(sink, path, reader_schema());
    ADD_FAILURE() << text << ": expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    const std::string prefix =
        "resume '" + path + "': line " + std::to_string(line) + ": ";
    EXPECT_EQ(msg.rfind(prefix, 0), 0u) << text << ": " << msg;
    EXPECT_NE(msg.find(token), std::string::npos) << text << ": " << msg;
  }
  std::remove(path.c_str());
}

TEST(ResumeErrors, CsvHeaderMismatchIsLineOne) {
  expect_reader_error("csv", "n,mean,title,easy\n1,0.5,a,1\n", 1,
                      "header 'n,mean,title,easy' does not match");
}

TEST(ResumeErrors, CsvReaderNamesTheLineAndToken) {
  expect_reader_error("csv", "n,mean,name,easy\n1,0.5,a,1\n2,0.5,\"a,1\n", 3,
                      "malformed quoting");
  expect_reader_error("csv", "n,mean,name,easy\n1,0.5,a\n", 2,
                      "has 3 cells where the schema has 4");
  expect_reader_error("csv", "n,mean,name,easy\nx,0.5,a,1\n", 2,
                      "cell 'x' under column 'n' is not a valid size");
  expect_reader_error("csv", "n,mean,name,easy\n1,0.5,a,yes\n", 2,
                      "cell 'yes' under column 'easy'");
}

TEST(ResumeErrors, JsonlReaderNamesTheLineAndToken) {
  const std::string good =
      R"({"n":1,"mean":0.5,"name":"a","easy":true})"
      "\n";
  expect_reader_error("jsonl", good + "[1,2]\n", 2,
                      "expected an object, got array");
  expect_reader_error("jsonl", good + R"({"n":1})" "\n", 2,
                      "has 1 fields where the schema has 4");
  expect_reader_error(
      "jsonl", good + R"({"mean":0.5,"n":1,"name":"a","easy":true})" "\n", 2,
      "field 0 is 'mean' where the schema has 'n'");
  expect_reader_error(
      "jsonl", good + R"({"n":"1","mean":0.5,"name":"a","easy":true})" "\n",
      2, "field 'n' is string where the schema declares size");
}

TEST(ResumeErrors, SinkWithoutAReaderIsNamed) {
  // A sink may register only a factory; resuming its artifact must fail
  // naming the sink rather than guessing a format.
  SinkRegistry::instance().replace(
      "write_only",
      {"test sink with no artifact reader",
       [](const SinkConfig& config) -> std::unique_ptr<ResultSink> {
         return std::make_unique<JsonlSink>(config);
       },
       /*read=*/{}});
  const std::string path = temp_path("resume_write_only.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"n":1,"mean":0.5,"name":"a","easy":true})" "\n";
  }
  try {
    (void)load_prior_output("write_only", path, reader_schema());
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sink 'write_only' has no artifact reader"),
              std::string::npos)
        << msg;
  }
  std::remove(path.c_str());
}

#if defined(COLSCORE_HAVE_SQLITE)
TEST(ResumeErrors, MismatchedSqliteTableIsNamed) {
  // A pre-existing `runs` table with foreign columns must be rejected by
  // name, not silently interleaved (satellite: sqlite hardening).
  const std::string path = temp_path("resume_mismatch.sqlite");
  {
    SinkConfig config;
    config.path = path;
    MetricSchema foreign;
    foreign.add({"alpha", MetricType::kString, "", "test"});
    SqliteSink sink(config);
    sink.begin(foreign);
    sink.finish();
  }
  try {
    (void)run_acceptance("sqlite", temp_path("resume_mm_out.sqlite"), "",
                         path);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does not match the suite schema"), std::string::npos)
        << msg;
  }
  std::remove(path.c_str());
}
#endif

// ---- crash durability (SIGKILL a real subprocess) ---------------------------

#if defined(COLSCORE_CLI_PATH) && defined(__unix__)
TEST(CrashDurability, KilledCliLeavesAResumableTmpArtifact) {
  const std::string out = temp_path("resume_kill.csv");
  const std::string clean = temp_path("resume_kill_clean.csv");
  const std::string args =
      std::string(COLSCORE_CLI_PATH) +
      " --scenario 'workload=planted n=48 budget=4 dishonest=4 opt=0'"
      " --grid 'adversary=none,sleeper,random_liar' --threads 1 --sink csv";

  ASSERT_EQ(std::system((args + " --out " + clean).c_str()), 0);

  // kill@2: the process SIGKILLs itself as run 2 starts — no cleanup, no
  // rename; rows 0..1 must already be durable in PATH.tmp.
  const int status = std::system(
      (args + " --faults kill@2 --out " + out + " >/dev/null 2>&1").c_str());
  // std::system goes through sh -c: depending on the shell, the child's
  // SIGKILL surfaces as a signal status or as exit code 128+9.
  const bool killed =
      (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
      (WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL);
  ASSERT_TRUE(killed) << status;
  std::ifstream tmp(out + ".tmp");
  EXPECT_TRUE(tmp.is_open()) << "durable partial artifact missing";
  tmp.close();

  ASSERT_EQ(std::system(
                (args + " --out " + out + " --resume " + out).c_str()),
            0);
  EXPECT_EQ(read_file(out), read_file(clean));
  std::remove(out.c_str());
  std::remove(clean.c_str());
}
#endif

}  // namespace
}  // namespace colscore
