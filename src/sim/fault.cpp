#include "src/sim/fault.hpp"

#include <csignal>

#include "src/common/strict_parse.hpp"
#include "src/common/thread_pool.hpp"

namespace colscore {

namespace {

[[noreturn]] void bad_token(const std::string& token, const std::string& why) {
  throw ScenarioError("fault spec token '" + token + "': " + why +
                      "; expected throw@I[xA], delay@I=S[xA], sink@W, or "
                      "kill@I");
}

/// Strict non-negative integer ("3"; not "", "-1", "3.5").
std::size_t parse_index(const std::string& token, const std::string& text) {
  const std::optional<std::uint64_t> index = parse_strict_u64(text);
  if (!index) bad_token(token, "'" + text + "' is not a non-negative integer");
  return static_cast<std::size_t>(*index);
}

/// Strict seconds in [0, kMaxDurationSeconds] ("0.5", "2").
double parse_seconds(const std::string& token, const std::string& text) {
  const std::optional<double> seconds = parse_duration_seconds(text);
  if (!seconds)
    bad_token(token, duration_error("the delay", text));
  return *seconds;
}

/// Splits a trailing xA attempt count off `text` ("5x2" -> ("5", 2)).
std::size_t take_attempts(const std::string& token, std::string& text) {
  const std::size_t x = text.rfind('x');
  if (x == std::string::npos) return 0;
  const std::size_t attempts = parse_index(token, text.substr(x + 1));
  if (attempts == 0) bad_token(token, "xA attempt count must be positive");
  text = text.substr(0, x);
  return attempts;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string token(text.substr(pos, comma - pos));
    pos = comma + 1;
    const std::size_t first = token.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // empty segment / whitespace
    const std::size_t last = token.find_last_not_of(" \t");
    token = token.substr(first, last - first + 1);

    const std::size_t at = token.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= token.size())
      bad_token(token, "missing '@INDEX'");
    const std::string kind = token.substr(0, at);
    std::string rest = token.substr(at + 1);

    FaultSpec spec;
    if (kind == "throw") {
      spec.kind = FaultKind::kThrow;
      spec.attempts = take_attempts(token, rest);
      spec.index = parse_index(token, rest);
    } else if (kind == "delay") {
      spec.kind = FaultKind::kDelay;
      const std::size_t eq = rest.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= rest.size())
        bad_token(token, "delay needs '=SECONDS'");
      std::string secs = rest.substr(eq + 1);
      spec.attempts = take_attempts(token, secs);
      spec.seconds = parse_seconds(token, secs);
      spec.index = parse_index(token, rest.substr(0, eq));
    } else if (kind == "sink") {
      spec.kind = FaultKind::kSinkFail;
      spec.index = parse_index(token, rest);
    } else if (kind == "kill") {
      spec.kind = FaultKind::kKill;
      spec.index = parse_index(token, rest);
    } else {
      bad_token(token, "unknown fault kind '" + kind + "'");
    }
    plan.specs_.push_back(spec);
  }
  return plan;
}

bool FaultPlan::has_sink_faults() const {
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kSinkFail) return true;
  return false;
}

void FaultPlan::before_attempt(std::size_t index, std::size_t attempt) const {
  const auto applies = [&](const FaultSpec& spec) {
    return spec.index == index &&
           (spec.attempts == 0 || attempt < spec.attempts);
  };
  // Delays first (a delayed run can still throw), then the unrecoverable
  // kinds: kill never returns, throw reports an injected failure.
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kDelay && applies(spec))
      sleep_for_seconds(spec.seconds);
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kKill && spec.index == index)
      std::raise(SIGKILL);
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kThrow && applies(spec))
      throw FaultInjected("injected fault: throw at run " +
                          std::to_string(index) + " attempt " +
                          std::to_string(attempt));
}

void FaultPlan::before_sink_write(std::size_t write_index) const {
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kSinkFail && spec.index == write_index)
      throw FaultInjected("injected fault: sink failure at write " +
                          std::to_string(write_index));
}

// ---- FaultInjectingSink -----------------------------------------------------

FaultInjectingSink::FaultInjectingSink(FaultPlan plan,
                                       std::unique_ptr<ResultSink> inner)
    : plan_(std::move(plan)), inner_(std::move(inner)) {}

void FaultInjectingSink::begin(const MetricSchema& schema) {
  inner_->begin(schema);
}

void FaultInjectingSink::write(const RunRecord& record) {
  // The fault fires before the row reaches the inner sink: the row is lost
  // exactly as if the device died mid-write, and resume must re-run it.
  plan_.before_sink_write(writes_++);
  inner_->write(record);
  ++rows_;
}

void FaultInjectingSink::finish() { inner_->finish(); }

}  // namespace colscore
