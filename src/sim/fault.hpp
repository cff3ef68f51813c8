// Deterministic fault injection for the fault-tolerance machinery.
//
// Every recovery path in the suite runner — retry-after-throw, timeout
// classification, graceful degradation to status/error rows, crash-durable
// sinks, resume — is exercised by *injected* faults rather than trusted: a
// FaultPlan names exact run indices (and optionally attempts) at which to
// throw, delay, kill the process, or fail a sink write. Plans are parsed
// from a spec string (`--faults` or a suite file's "faults" key), so the
// same chaos scenario is reproducible byte-for-byte in tests, CI, and a
// shell.
//
// Spec grammar (comma-separated tokens):
//   throw@I      every attempt of run index I throws FaultInjected
//   throw@IxA    only the first A attempts throw (retries then succeed)
//   delay@I=S    every attempt of run I sleeps S seconds first (pair with
//                timeout_s to manufacture a deterministic timeout)
//   delay@I=SxA  only the first A attempts are delayed
//   sink@W       the W-th sink write (0-based, across the sink's lifetime)
//                throws FaultInjected — simulates a dying output device
//   kill@I       the process raises SIGKILL when run I starts (subprocess
//                crash tests; no cleanup runs, so the partial-output
//                contract is what survives)
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/sink.hpp"

namespace colscore {

/// Thrown by injected throw/sink faults. A distinct type so tests and logs
/// can tell an injected failure from a real one; the retry machinery treats
/// both identically (any exception fails the attempt).
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind { kThrow, kDelay, kSinkFail, kKill };

struct FaultSpec {
  FaultKind kind = FaultKind::kThrow;
  /// Run index (throw/delay/kill) or 0-based sink write index (sink).
  std::size_t index = 0;
  /// Attempts affected: 0 = every attempt; A = attempts 0..A-1 only (so
  /// throw@3x1 fails the first attempt and a retry succeeds).
  std::size_t attempts = 0;
  /// Injected sleep for kDelay.
  double seconds = 0.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the spec grammar above; throws ScenarioError naming the bad
  /// token. An empty/whitespace spec yields an empty plan.
  static FaultPlan parse(std::string_view text);

  bool empty() const { return specs_.empty(); }
  bool has_sink_faults() const;
  std::span<const FaultSpec> specs() const { return specs_; }

  /// Runner hook, called before attempt `attempt` (0-based) of run `index`:
  /// applies matching delays, then kill faults, then throws FaultInjected
  /// for matching throw faults.
  void before_attempt(std::size_t index, std::size_t attempt) const;

  /// Sink hook: throws FaultInjected when `write_index` is targeted by a
  /// sink@ fault.
  void before_sink_write(std::size_t write_index) const;

 private:
  std::vector<FaultSpec> specs_;
};

/// ResultSink decorator injecting the plan's sink@ faults in front of a real
/// sink — the harness for proving sink-failure recovery (the suite aborts,
/// the durable partial artifact survives, --resume completes it).
class FaultInjectingSink : public ResultSink {
 public:
  FaultInjectingSink(FaultPlan plan, std::unique_ptr<ResultSink> inner);

  void begin(const MetricSchema& schema) override;
  void write(const RunRecord& record) override;
  void finish() override;

 private:
  FaultPlan plan_;
  std::unique_ptr<ResultSink> inner_;
  std::size_t writes_ = 0;
};

}  // namespace colscore
