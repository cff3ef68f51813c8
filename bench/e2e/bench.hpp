// Shared pieces of the end-to-end benchmark program colscore_bench: the
// command-line options, the report every workload fills, and the small
// statistics and hashing helpers the workloads share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/timer.hpp"

namespace colscore::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement window. Timed mode keeps issuing operations until it has
  /// elapsed (and a workload's minimum count is met); trace mode spends half
  /// of it untraced and replays the same operations traced.
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event output of trace mode; empty = keep spans in memory
  /// only (smoke mode).
  std::string trace_out;
  /// Toy sizes: every code path of the workload in well under a second.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation measured and checked. Failures carry a
/// message each; the first few are kept for the output.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }
  void attempt(std::uint64_t ops = 1) { attempted_ += ops; }
  void fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < kKeptFailures) failures_.push_back(why);
  }
  /// A replay that diverged from the library measured a different program:
  /// its layer numbers are dropped, only the named error remains.
  void drop_metrics() { metrics_.clear(); }
  void set_fingerprint(std::string hex) { fingerprint_ = std::move(hex); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::string& fingerprint() const { return fingerprint_; }

 private:
  static constexpr std::size_t kKeptFailures = 20;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::string fingerprint_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Thrown when a traced replay does not reproduce the library run it
/// mirrors; the message names the first diverging field.
class ReplayError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Quantile q in [0, 1] by linear interpolation between closest ranks (the
/// numpy default). `v` must be non-empty.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a, 64-bit: the output fingerprints compared across passes and
/// across workloads.
class Fnv {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// "1.25,0.5,..." — raw samples for the report's notes.
std::string join(const std::vector<double>& values);

/// Set-ups per timed invocation; setup_s is their median. The measurement
/// window is split into this many segments, each opened by a set-up of its
/// own, so that the set-ups fall seconds apart and one slow stretch of the
/// host does not set the median. Each sample is the time from the start of
/// main to the first set-up plus the time of its own set-up: what a
/// process would pay from main to its first timed operation had that
/// set-up been its first. Before each set-up the previous one's freed heap
/// is returned to the system (malloc_trim), so peak_rss_mb reflects one
/// set-up rather than the heap fragmentation of several.
inline constexpr std::size_t kSetupReps = 3;

// ---- host-speed gauge -------------------------------------------------------
//
// On a shared host the same code runs up to 1.8 times slower for seconds
// to minutes at a time while other tenants load the physical core under
// this one, so a median over a window inherits how busy the host was
// during it. The gauge samples the host's speed on the timed thread
// itself: a timer signal interrupts the thread every 25 ms, and the
// handler times a fixed reference kernel, four independent integer chains
// that keep the core's ALU ports busy as the library's bit-row loops do
// and slow down with them. A time multiplied by kReferenceIdleMs over the
// mean sample taken during it reads as it would on an idle core
// ("scaled"). On serial library runs of 0.3 and 2.8 s, the median scaled
// time of 30-second windows varied 2 to 3% (interquartile range over
// median) where the wall time varied 12 to 31%.

/// Arms the gauge on the calling thread; later calls do nothing. Every
/// GaugeTimer must run on that thread.
void start_gauge();

/// The reference kernel's time on an idle core of the host the bounds in
/// BENCHMARK.json were fixed on (a 4-vCPU Xeon VM, 2.0 GHz nominal): the
/// lowest mean over a run's samples seen there. It only sets the scale.
inline constexpr double kReferenceIdleMs = 0.32;

/// An interval on the gauged thread: its wall time less the time the
/// gauge's own samples took, and the samples [first, end) taken inside it.
struct Interval {
  double seconds = 0.0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
};

class GaugeTimer {
 public:
  GaugeTimer();
  /// The interval from construction until now.
  Interval stop() const;

 private:
  std::int64_t start_ns_;
  std::int64_t busy_ns_;
  std::uint64_t first_;
};

/// The interval's time at idle-core speed. An interval holding fewer than
/// 8 samples borrows the nearest ones on either side, so call this after
/// the run has moved on (when reporting). Unscaled while no sample exists.
double scaled_seconds(const Interval& interval);

/// Median sample over kReferenceIdleMs, over every sample so far: how much
/// slower than idle the host ran.
double host_slowdown();

// ---- workloads --------------------------------------------------------------

/// grid18, grid18_t4, sleeper2048: scenario suites run through SuiteRunner.
bool is_suite_workload(std::string_view name);
void run_suite_workload(const Options& options, const Timer& since_main,
                        Report& report);

/// churn4096: a StreamSession under drift, departures, re-arrivals and
/// periodic bursts.
bool is_churn_workload(std::string_view name);
void run_churn_workload(const Options& options, const Timer& since_main,
                        Report& report);

}  // namespace colscore::bench
