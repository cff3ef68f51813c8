#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace colscore::bench {

namespace {

// Timestamps are offsets from the first span of the process.
double now_us() {
  static const Timer origin;
  return origin.seconds() * 1e6;
}

}  // namespace

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

std::uint32_t SpanLog::open(std::string_view name, std::int64_t guess) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? Span::kNoParent : open_.back();
  span.tid = tid_;
  span.op = op_;
  span.guess = guess;
  span.start_us = now_us();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[id].dur_us = now_us() - spans_[id].start_us;
  open_.pop_back();
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  small_radius_probes += other.small_radius_probes;
  vote_probes += other.vote_probes;
  rselect_probes += other.rselect_probes;
  graph_degree_sum += other.graph_degree_sum;
  board_reports += other.board_reports;
  board_vectors += other.board_vectors;
  edges_changed += other.edges_changed;
  rebuild_epochs += other.rebuild_epochs;
  recluster_epochs += other.recluster_epochs;
  return *this;
}

void LayerCounts::report_to(Report& report, std::size_t ops) const {
  const auto per_op = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(ops);
  };
  report.add("protocols.small_radius_probes", per_op(small_radius_probes),
             "probes");
  report.add("protocols.vote_probes", per_op(vote_probes), "probes");
  report.add("protocols.rselect_probes", per_op(rselect_probes), "probes");
  report.add("protocols.graph_edges", per_op(graph_degree_sum) / 2, "count");
  report.add("board.reports", per_op(board_reports), "count");
  report.add("board.vectors", per_op(board_vectors), "count");
  report.add("stream.edges_changed", per_op(edges_changed), "count");
  report.add("stream.rebuild_epochs", static_cast<double>(rebuild_epochs), "count");
  report.add("stream.rebuild_frac", per_op(rebuild_epochs), "frac");
  report.add("stream.recluster_frac", per_op(recluster_epochs), "frac");
}

void TraceStore::merge(const SpanLog& log) {
  std::lock_guard lock(mutex_);
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span span : log.spans()) {
    if (span.parent != Span::kNoParent) span.parent += base;
    spans_.push_back(span);
  }
}

double TraceStore::root_ms() const {
  std::lock_guard lock(mutex_);
  double us = 0.0;
  for (const Span& s : spans_)
    if (s.parent == Span::kNoParent) us += s.dur_us;
  return us / 1e3;
}

void TraceStore::report_layers(Report& report, std::size_t ops) const {
  std::lock_guard lock(mutex_);
  // Self time = duration minus the part covered by direct children.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us;
  for (const Span& s : spans_)
    if (s.parent != Span::kNoParent) self[s.parent] -= s.dur_us;

  std::map<std::string_view, double> self_by_name;
  double root_us = 0.0;
  double uncovered_us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == Span::kNoParent) {
      root_us += spans_[i].dur_us;
      uncovered_us += self[i];
    } else {
      self_by_name[spans_[i].name] += self[i];
    }
  }
  if (root_us <= 0.0 || ops == 0)
    throw std::runtime_error("trace: no operation was traced");
  for (const auto& [name, us] : self_by_name) {
    bool known = false;
    for (std::string_view layer : kLayers) known = known || layer == name;
    if (!known)
      throw std::logic_error("trace: span '" + std::string(name) +
                             "' is not a listed layer");
  }
  const auto per_op = static_cast<double>(ops);
  for (std::string_view layer : kLayers) {
    const auto it = self_by_name.find(layer);
    const double us = it == self_by_name.end() ? 0.0 : it->second;
    report.add(std::string(layer) + "_ms", us / 1e3 / per_op, "ms");
    report.add(std::string(layer) + "_share", us / root_us, "frac");
  }
  const double coverage = 1.0 - uncovered_us / root_us;
  report.add("trace.coverage", coverage, "frac");
  report.add("trace.op_ms", root_us / 1e3 / per_op, "ms");
  if (coverage < kMinCoverage)
    report.fail("trace coverage " + std::to_string(coverage) + " is below " +
                std::to_string(kMinCoverage) +
                ": some layer call is outside every span");
}

void TraceStore::write_chrome(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("trace: cannot write '" + path + "'");
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view cat = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                 "\"op\":%llu,\"guess\":%lld,\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", static_cast<int>(s.name.size()),
                 s.name.data(), static_cast<int>(cat.size()), cat.data(),
                 s.start_us, s.dur_us, s.tid,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.guess), i,
                 s.parent == Span::kNoParent
                     ? -1LL
                     : static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0)
    throw std::runtime_error("trace: error writing '" + path + "'");
}

}  // namespace colscore::bench
