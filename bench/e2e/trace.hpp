// Spans for the traced replays. Each replayed operation (one scenario run,
// or one stream epoch) records its spans into its own SpanLog on the thread
// that runs it; finished logs merge into a TraceStore, which computes
// per-layer self time and writes Chrome trace-event JSON (chrome://tracing,
// Perfetto) when the benchmark ends. Spans are taken in the benchmark's own
// files, around calls into each layer's public functions.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace colscore::bench {

/// Layers the spans are filed under, named "<src module>.<step>". The root
/// spans ("sim.run", "stream.epoch") bracket one operation; the part of a
/// root its children leave uncovered is the replay's own bookkeeping.
inline constexpr std::array<std::string_view, 15> kLayers = {
    "model.world", "sim.population", "core.sample", "protocols.small_radius",
    "core.publish", "protocols.graph_build", "protocols.peel", "protocols.vote",
    "protocols.rselect", "metrics.error", "board.release", "sim.sink",
    "stream.update", "stream.rebuild", "stream.peel"};

/// Share of the traced time the layer spans must cover for the per-layer
/// numbers to account for the operation.
inline constexpr double kMinCoverage = 0.95;

struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::string_view name;  // always a string literal
  std::uint32_t parent = kNoParent;
  std::uint32_t tid = 0;
  std::uint64_t op = 0;     // the operation (request) every span belongs to
  std::int64_t guess = -1;  // diameter guess of a protocol step, else -1
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Small dense id of the calling thread, for the trace's tid column.
std::uint32_t thread_slot();

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t op) : tid_(thread_slot()), op_(op) {}

  /// Opens a span as a child of the innermost open one; returns its id.
  std::uint32_t open(std::string_view name, std::int64_t guess = -1);
  void close(std::uint32_t id);
  /// Re-files a span, e.g. an apply_updates call that turned out to be a
  /// rebuild.
  void rename(std::uint32_t id, std::string_view name) { spans_[id].name = name; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::uint64_t op_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name, std::int64_t guess = -1)
      : log_(log), id_(log.open(name, guess)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Work counts the replays take at their span boundaries.
struct LayerCounts {
  std::uint64_t small_radius_probes = 0;
  std::uint64_t vote_probes = 0;
  std::uint64_t rselect_probes = 0;
  std::uint64_t graph_degree_sum = 0;  // twice the edges of the graphs seen
  std::uint64_t board_reports = 0;
  std::uint64_t board_vectors = 0;
  std::uint64_t edges_changed = 0;
  std::uint64_t rebuild_epochs = 0;
  std::uint64_t recluster_epochs = 0;

  LayerCounts& operator+=(const LayerCounts& other);
  /// Adds every count as a mean per operation, so runs of different length
  /// compare; stream.rebuild_epochs is also given as a total.
  void report_to(Report& report, std::size_t ops) const;
};

class TraceStore {
 public:
  /// Appends a finished log; safe to call from several threads.
  void merge(const SpanLog& log);

  /// Sum of root-span durations, in ms: the traced time of all operations.
  double root_ms() const;

  /// Adds `<layer>_ms` (self time per operation) and `<layer>_share` (self
  /// time over traced time) for every layer in kLayers, plus trace.coverage
  /// (share of root time covered by layer spans) and trace.op_ms. Coverage
  /// below kMinCoverage is a failure.
  void report_layers(Report& report, std::size_t ops) const;

  /// Writes every span as a Chrome "X" event; args carry the op index, the
  /// diameter guess and the causing span.
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace colscore::bench
