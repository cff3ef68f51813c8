// colscore_bench: the end-to-end benchmark program. One invocation runs one
// workload in one process (so peak RSS belongs to that workload) and prints
// a single JSON line with everything it measured and checked; run.py builds
// it, runs it per workload and turns those lines into the benchmark result.
//
//   colscore_bench --workload grid18 [--seed 1] [--seconds 10]
//   colscore_bench --workload churn4096 --trace --trace-out churn.json
//   colscore_bench --smoke          # every workload + replay at toy sizes
//
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad usage.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "build_info.hpp"
#include "src/common/json.hpp"
#include "src/common/simd.hpp"

namespace colscore::bench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ",";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
  }
  return out;
}

namespace {

constexpr std::string_view kWorkloads[] = {"grid18", "grid18_t4", "sleeper2048",
                                           "churn4096"};

/// Shortest spelling that reads back to the same double: every digit kept.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

/// Peak resident set of this process image. VmHWM belongs to the current
/// address space; getrusage's ru_maxrss survives execve and would report
/// the launching process's size when that was larger.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_workload(const Options& options, const Timer& since_main, Report& report) {
  try {
    if (is_suite_workload(options.workload))
      run_suite_workload(options, since_main, report);
    else
      run_churn_workload(options, since_main, report);
  } catch (const ReplayError& e) {
    report.drop_metrics();
    report.fail(std::string("replay: ") + e.what());
  } catch (const std::exception& e) {
    report.fail(e.what());
  }
}

void print_report(const Options& options, const Report& report) {
  std::string out = "{\"workload\":" + json_quote(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"mode\":" + (options.trace ? "\"trace\"" : "\"timed\"") +
                    ",\"attempted\":" + std::to_string(report.attempted()) +
                    ",\"failed\":" + std::to_string(report.failed()) +
                    ",\"fingerprint\":" + json_quote(report.fingerprint()) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures().size(); ++i)
    out += (i ? "," : "") + json_quote(report.failures()[i]);
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < report.notes().size(); ++i)
    out += (i ? "," : "") + json_quote(report.notes()[i].first) + ":" +
           json_quote(report.notes()[i].second);
  out += std::string("},\"build\":{\"compiler\":") +
         json_quote(build_info::kCompiler) +
         ",\"build_type\":" + json_quote(build_info::kBuildType) +
         ",\"lto\":" + (build_info::kLto ? "true" : "false") +
         ",\"simd_tier\":" + json_quote(simd::tier_name(simd::active_tier())) +
         ",\"git_sha\":" + json_quote(build_info::kGitSha) +
         ",\"git_dirty\":" + (build_info::kGitDirty ? "true" : "false") +
         ",\"src_lines\":" + std::to_string(build_info::kSrcLines) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         "},\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    out += (i ? "," : "") + json_quote(m.name) +
           ":{\"value\":" + json_number(m.value) + ",\"unit\":" + json_quote(m.unit) +
           "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

/// Every workload, timed and traced, at toy sizes: a ctest that catches
/// drift between this program and the library's API or behaviour.
int run_smoke() {
  const Timer total;
  bool ok = true;
  for (const std::string_view name : kWorkloads) {
    for (const bool trace : {false, true}) {
      Options options;
      options.workload = std::string(name);
      options.seconds = 0.0;
      options.trace = trace;
      options.smoke = true;
      const Timer timer;
      Report report;
      run_workload(options, timer, report);
      const bool passed = report.failed() == 0 && report.attempted() > 0 &&
                          !report.metrics().empty();
      std::printf("smoke %-11s %-5s %s: %llu ops, %llu failed, %.2f s\n",
                  options.workload.c_str(), trace ? "trace" : "timed",
                  passed ? "ok" : "FAILED",
                  static_cast<unsigned long long>(report.attempted()),
                  static_cast<unsigned long long>(report.failed()),
                  timer.seconds());
      for (const std::string& why : report.failures())
        std::printf("  %s\n", why.c_str());
      ok = ok && passed;
    }
  }
  std::printf("smoke total %.2f s\n", total.seconds());
  return ok ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "colscore_bench: %s\n"
               "usage: colscore_bench --workload NAME [--seed N] [--seconds S]"
               " [--trace] [--trace-out PATH]\n"
               "       colscore_bench --smoke\n"
               "workloads: grid18 grid18_t4 sleeper2048 churn4096\n",
               why);
  return 2;
}

}  // namespace
}  // namespace colscore::bench

int main(int argc, char** argv) {
  using namespace colscore::bench;
  const colscore::Timer since_main;
  Options options;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--smoke") {
        smoke = true;
      } else if (arg == "--trace") {
        options.trace = true;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace-out" && has_value) {
        options.trace_out = argv[++i];
      } else {
        return usage(("unknown or incomplete argument '" + std::string(arg) + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + std::string(arg)).c_str());
    }
  }
  if (smoke) return run_smoke();
  if (!is_suite_workload(options.workload) && !is_churn_workload(options.workload))
    return usage(("unknown workload '" + options.workload + "'").c_str());
  if (!(options.seconds >= 0.0)) return usage("--seconds must be >= 0");

  Report report;
  run_workload(options, since_main, report);
  if (!options.trace && report.failed() == 0)
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  report.add("ops", static_cast<double>(report.attempted()), "count");
  report.add("failed_frac",
             report.attempted() == 0 ? 1.0
                                     : static_cast<double>(report.failed()) /
                                           static_cast<double>(report.attempted()),
             "ratio");
  print_report(options, report);
  return report.failed() == 0 ? 0 : 1;
}
