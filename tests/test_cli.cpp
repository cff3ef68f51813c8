// colscore_cli front-end coverage through a real subprocess. Every
// sink-backed run (a --suite file, or a sweep spelled with --grid) goes
// through run_suite_file, so: a suite file and the same sweep spelled as a
// --grid give identical bytes on every text sink; --shard outputs
// concatenate to the unsharded rows; --resume merges a fault-injected grid
// artifact back to the clean bytes; a malformed numeric flag or an unknown
// flag prints the usage text instead of reaching the runner; an input past
// a cap, or a fault the run cannot apply, fails by name; an invalid grid
// cell fails the sweep at plan time; and a cell whose world cannot be built
// fails its own row while the rest of the sweep runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(COLSCORE_CLI_PATH) && defined(COLSCORE_SOURCE_DIR) && \
    defined(__unix__)
#include <sys/wait.h>

namespace colscore {
namespace {

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

std::size_t line_count(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

struct CliResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

/// Runs the CLI with `args` (shell syntax), capturing stdout and stderr.
CliResult cli(const std::string& args) {
  const std::string out = temp_path("cli_stdout.txt");
  const std::string err = temp_path("cli_stderr.txt");
  const int status = std::system((std::string(COLSCORE_CLI_PATH) + " " +
                                  args + " >" + out + " 2>" + err)
                                     .c_str());
  CliResult result;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  result.out = read_file(out);
  result.err = read_file(err);
  std::remove(out.c_str());
  std::remove(err.c_str());
  return result;
}

const std::string kSmokeSuite =
    std::string(COLSCORE_SOURCE_DIR) + "/examples/suites/smoke.json";

// examples/suites/smoke.json spelled with flags: 2 n x 2 adversaries x 2
// reps = 8 runs.
const std::string kSmokeGrid =
    " --workload planted --budget 4 --diameter 8 --dishonest 4 --no-opt"
    " --grid 'n=48,64 x adversary=none,sleeper x reps=2'";

TEST(CliFrontEnd, SuiteFileMatchesTheEquivalentGrid) {
  for (const std::string sink : {"csv", "jsonl"}) {
    const std::string from_suite = temp_path("cli_suite." + sink);
    const std::string from_grid = temp_path("cli_grid." + sink);
    const CliResult suite = cli("--suite " + kSmokeSuite + " --sink " + sink +
                                " --out " + from_suite);
    ASSERT_EQ(suite.exit_code, 0) << suite.err;
    const CliResult grid =
        cli("--sink " + sink + " --out " + from_grid + kSmokeGrid);
    ASSERT_EQ(grid.exit_code, 0) << grid.err;

    const std::string rows = read_file(from_suite);
    EXPECT_EQ(line_count(rows), sink == "csv" ? 9u : 8u) << rows;  // + header
    EXPECT_EQ(rows, read_file(from_grid)) << sink;
    std::remove(from_suite.c_str());
    std::remove(from_grid.c_str());
  }
}

TEST(CliFrontEnd, ListColumnsShowsVictimErrAsADiagnostic) {
  const CliResult listed = cli("--list-columns");
  ASSERT_EQ(listed.exit_code, 0) << listed.err;
  std::istringstream lines(listed.out);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string key, type, origin;
    words >> key >> type >> origin;
    if (key != "victim_err") continue;
    found = true;
    EXPECT_EQ(type, "size") << line;
    EXPECT_EQ(origin, "diagnostic") << line;
  }
  EXPECT_TRUE(found) << listed.out;
}

TEST(CliFrontEnd, ShardsConcatenateToTheUnshardedRows) {
  const CliResult whole = cli("--sink jsonl" + kSmokeGrid);
  const CliResult first = cli("--sink jsonl --shard 0/2" + kSmokeGrid);
  const CliResult second = cli("--sink jsonl --shard 1/2" + kSmokeGrid);
  ASSERT_EQ(whole.exit_code, 0) << whole.err;
  ASSERT_EQ(first.exit_code, 0) << first.err;
  ASSERT_EQ(second.exit_code, 0) << second.err;
  EXPECT_EQ(line_count(whole.out), 8u);
  EXPECT_EQ(line_count(first.out), 4u);
  EXPECT_EQ(first.out + second.out, whole.out);
}

TEST(CliFrontEnd, ResumeMergesAFaultInjectedGridArtifact) {
  const std::string clean = temp_path("cli_resume_clean.jsonl");
  const std::string faulty = temp_path("cli_resume_faulty.jsonl");
  ASSERT_EQ(cli("--sink jsonl --out " + clean + kSmokeGrid).exit_code, 0);

  // Two runs throw: the sweep finishes with failure rows, exit 1.
  const CliResult first = cli("--sink jsonl --out " + faulty +
                              " --faults 'throw@2,throw@5'" + kSmokeGrid);
  EXPECT_EQ(first.exit_code, 1) << first.err;
  EXPECT_NE(first.err.find("2 of 8 runs failed"), std::string::npos)
      << first.err;
  EXPECT_NE(read_file(faulty), read_file(clean));

  const CliResult resumed = cli("--sink jsonl --out " + faulty +
                                " --resume " + faulty + kSmokeGrid);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.err;
  EXPECT_EQ(read_file(faulty), read_file(clean));
  std::remove(clean.c_str());
  std::remove(faulty.c_str());
}

TEST(CliFrontEnd, BadFlagsPrintUsage) {
  // std::stoull wraps "-1" to 2^64-1; the strict parser rejects it before
  // it can size a thread pool. There are no retry or timeout flags (a run
  // is a pure function of its seed): they fail like any unknown flag.
  for (const char* flag :
       {"--threads -1", "--retries 1", "--timeout-s 1", "--backoff-s 0"}) {
    const CliResult result =
        cli(std::string(flag) + " --n 32 --budget 4 --no-opt");
    EXPECT_EQ(result.exit_code, 2) << flag;
    EXPECT_NE(result.out.find("usage:"), std::string::npos) << result.out;
    EXPECT_EQ(result.err.find("aborted"), std::string::npos) << result.err;
  }
}

TEST(CliFrontEnd, BadInputsFailByName) {
  // Each cap is checked before the value is used: no pool is built for an
  // over-cap thread count, and no parse recurses past the JSON depth cap
  // (200,000 nested brackets overflow an uncapped parser's stack, exit 139).
  // A fault the run cannot apply is named too: a delay@ kind or an xA
  // attempt suffix (a run executes once), and a sink@ fault on the
  // human-readable report, which has no sink to fail.
  const std::string deep_suite = temp_path("cli_deep.json");
  const std::string deep_rows = temp_path("cli_deep.jsonl");
  const std::string opens(200000, '['), closes(200000, ']');
  std::ofstream(deep_suite) << "{\"base\": " << opens << closes << "}";
  std::ofstream(deep_rows) << opens << closes << "\n";
  const std::string run = " --grid 'n=48' --budget 4 --no-opt --sink jsonl";
  for (const auto& [args, needle] : std::vector<std::pair<std::string, std::string>>{
           {"--threads 1025" + run, "--threads must be at most 1024 (got 1025)"},
           {"--faults 'delay@0=1'" + run, "fault spec token 'delay@0=1'"},
           {"--faults 'throw@1x1'" + run, "fault spec token 'throw@1x1'"},
           {"--grid 'n=48 x seed=1,2' --budget 4 --no-opt --faults sink@0",
            "sink@ faults fail a sink write"},
           {"--suite " + deep_suite, "json: nesting deeper than 64 at line 1:"},
           {"--resume " + deep_rows + run, "resume '" + deep_rows + "': line 1:"}}) {
    const CliResult result = cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.err;
    EXPECT_NE(result.err.find(needle), std::string::npos) << result.err;
  }
  std::remove(deep_suite.c_str());
  std::remove(deep_rows.c_str());
}

TEST(CliFrontEnd, ZeroBudgetFailsTheGridAtPlanTime) {
  // A budget=0 cell must fail the grid at plan time: run isolation catches
  // exceptions, not assertion aborts, so a mid-run failure would kill the
  // whole sweep and leave a partial .tmp artifact behind.
  const std::string out = temp_path("cli_budget0.jsonl");
  const CliResult result =
      cli("--grid 'budget=4,0' --n 32 --no-opt --sink jsonl --out " + out +
          " --threads 1");
  EXPECT_EQ(result.exit_code, 2) << result.err;
  EXPECT_NE(result.err.find("budget"), std::string::npos) << result.err;
  EXPECT_EQ(result.err.find("assertion failed"), std::string::npos)
      << result.err;
  EXPECT_FALSE(std::ifstream(out + ".tmp").is_open());
  std::remove(out.c_str());
  std::remove((out + ".tmp").c_str());
}

TEST(CliFrontEnd, StepOffOverrideFailsByName) {
  // vote_c=0 vote_min=0 leaves work sharing no votes, so a coin decides
  // every object. It must be a plan-time error (exit 2), not a row.
  const CliResult result = cli(
      "--scenario 'n=64 budget=4 vote_c=0 vote_min=0 opt=0' --sink jsonl "
      "--threads 1");
  EXPECT_EQ(result.exit_code, 2) << result.err;
  EXPECT_NE(result.err.find("vote_min=0"), std::string::npos) << result.err;
  EXPECT_EQ(line_count(result.out), 0u) << result.out;
  // cluster_slack above 1 would cast a negative cluster threshold.
  const CliResult slack = cli(
      "--scenario 'n=64 budget=4 cluster_slack=2 opt=0' --sink jsonl "
      "--threads 1");
  EXPECT_EQ(slack.exit_code, 2) << slack.err;
  EXPECT_NE(slack.err.find("cluster_slack=2"), std::string::npos) << slack.err;
  EXPECT_EQ(line_count(slack.out), 0u) << slack.out;
}

TEST(CliFrontEnd, WorkloadPreconditionFailsOnlyItsRow) {
  // n=8 is below the default diameter 16: the planted generator cannot build
  // that world. The cell must become a failed row naming the key while the
  // n=64 cell still runs, not a CS_ASSERT abort that loses the whole sweep.
  const CliResult result = cli(
      "--grid 'n=8,64 x workload=planted' --no-opt --sink jsonl --threads 1");
  EXPECT_EQ(result.exit_code, 1) << result.err;
  EXPECT_EQ(result.err.find("assertion failed"), std::string::npos)
      << result.err;
  ASSERT_EQ(line_count(result.out), 2u) << result.out;
  std::istringstream rows(result.out);
  std::string small, large;
  std::getline(rows, small);
  std::getline(rows, large);
  EXPECT_NE(small.find("\"n\":8,"), std::string::npos) << small;
  EXPECT_NE(small.find("\"status\":\"failed\""), std::string::npos) << small;
  EXPECT_NE(small.find("diameter"), std::string::npos) << small;
  EXPECT_NE(large.find("\"n\":64,"), std::string::npos) << large;
  EXPECT_NE(large.find("\"status\":\"ok\""), std::string::npos) << large;
}

}  // namespace
}  // namespace colscore
#endif
