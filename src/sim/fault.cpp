#include "src/sim/fault.hpp"

#include <csignal>

#include "src/common/strict_parse.hpp"

namespace colscore {

namespace {

[[noreturn]] void bad_token(const std::string& token, const std::string& why) {
  throw ScenarioError("fault spec token '" + token + "': " + why +
                      "; expected throw@I, sink@W, or kill@I");
}

/// Strict non-negative integer ("3"; not "", "-1", "3.5").
std::size_t parse_index(const std::string& token, const std::string& text) {
  const std::optional<std::uint64_t> index = parse_strict_u64(text);
  if (!index) bad_token(token, "'" + text + "' is not a non-negative integer");
  return static_cast<std::size_t>(*index);
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
    FaultSpec spec;
    if (kind == "throw") spec.kind = FaultKind::kThrow;
    else if (kind == "sink") spec.kind = FaultKind::kSinkFail;
    else if (kind == "kill") spec.kind = FaultKind::kKill;
    else bad_token(token, "unknown fault kind '" + kind + "'");
    spec.index = parse_index(token, token.substr(at + 1));
    plan.specs_.push_back(spec);
  }
  return plan;
}

bool FaultPlan::has_sink_faults() const {
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kSinkFail) return true;
  return false;
}

void FaultPlan::before_run(std::size_t index) const {
  // Kill first: it never returns, while a throw reports an injected failure.
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kKill && spec.index == index)
      std::raise(SIGKILL);
  for (const FaultSpec& spec : specs_)
    if (spec.kind == FaultKind::kThrow && spec.index == index)
      throw FaultInjected("injected fault: throw at run " +
                          std::to_string(index));
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
