#include "src/board/bulletin_board.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace colscore {

namespace {

[[noreturn]] void no_log(const char* reader) {
  throw std::logic_error(std::string("BulletinBoard::") + reader +
                         ": a kCounts board keeps no log; construct the board "
                         "with BoardRetention::kFull to read posts back");
}

}  // namespace

BulletinBoard::BulletinBoard(BoardRetention retention)
    : retention_(retention),
      report_log_(retention == BoardRetention::kFull
                      ? std::make_unique<ReportShard[]>(kShards)
                      : nullptr) {}

void BulletinBoard::post_report(std::uint64_t tag, PlayerId author, ObjectId object,
                                bool value) {
  const ProbeReport report{author, object, value};
  post_reports(tag, {&report, 1});
}

void BulletinBoard::post_reports(std::uint64_t tag,
                                 std::span<const ProbeReport> reports) {
  if (reports.empty()) return;
  if (report_log_ != nullptr) {
    ReportShard& shard = report_log_[tag % kShards];
    std::lock_guard lock(shard.mutex);
    auto& channel = shard.by_tag[tag];
    // insert grows the arena geometrically; an exact reserve per block would
    // make a run of blocks quadratic.
    channel.insert(channel.end(), reports.begin(), reports.end());
  }
  report_count_.fetch_add(reports.size(), std::memory_order_relaxed);
}

std::vector<ProbeReport> BulletinBoard::reports_for(std::uint64_t tag,
                                                    ObjectId object) const {
  if (report_log_ == nullptr) no_log("reports_for");
  std::vector<ProbeReport> out;
  for (const ProbeReport& r : all_reports(tag))
    if (r.object == object) out.push_back(r);
  return out;
}

std::vector<ProbeReport> BulletinBoard::all_reports(std::uint64_t tag) const {
  if (report_log_ == nullptr) no_log("all_reports");
  std::vector<ProbeReport> out;
  {
    const ReportShard& shard = report_log_[tag % kShards];
    std::lock_guard lock(shard.mutex);
    auto it = shard.by_tag.find(tag);
    if (it != shard.by_tag.end()) out = it->second;
  }
  // A stable sort by object id keeps posting order within each object.
  std::stable_sort(out.begin(), out.end(),
                   [](const ProbeReport& a, const ProbeReport& b) {
                     return a.object < b.object;
                   });
  return out;
}

void BulletinBoard::post_vector(std::uint64_t tag, PlayerId author,
                                ConstBitRow vector) {
  VectorShard& shard = vector_shards_[tag % kShards];
  std::lock_guard lock(shard.mutex);
  shard.by_tag[tag].append(author, vector);
  vector_count_.fetch_add(1, std::memory_order_relaxed);
}

BulletinBoard::VectorChannelWriter BulletinBoard::vector_channel(std::uint64_t tag) {
  VectorShard& shard = vector_shards_[tag % kShards];
  std::unique_lock lock(shard.mutex);
  VectorChannel& channel = shard.by_tag[tag];
  return VectorChannelWriter(std::move(lock), channel, vector_count_);
}

std::vector<VectorPost> BulletinBoard::vectors(std::uint64_t tag) const {
  if (retention_ != BoardRetention::kFull) no_log("vectors");
  const VectorShard& shard = vector_shards_[tag % kShards];
  std::lock_guard lock(shard.mutex);
  std::vector<VectorPost> out;
  auto it = shard.by_tag.find(tag);
  if (it == shard.by_tag.end()) return out;
  const VectorChannel& channel = it->second;
  out.reserve(channel.size());
  for (std::size_t i = 0; i < channel.size(); ++i)
    out.push_back(VectorPost{channel.authors[i], BitVector(channel.row(i))});
  return out;
}

std::vector<BulletinBoard::SupportedVector> BulletinBoard::take_support(
    std::uint64_t tag) {
  // Count support in place under the shard lock: rows are hashed and
  // compared inside the packed store, and only the distinct vectors are
  // copied out.
  VectorShard& shard = vector_shards_[tag % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.by_tag.find(tag);
  if (it == shard.by_tag.end()) return {};
  const VectorChannel& channel = it->second;
  // Distinct-vector dedup: a flat hash list scanned linearly while the
  // distinct count stays small (the overwhelmingly common case — support
  // channels converge on a handful of vectors), with a hash-map fallback
  // once it grows. The flat path does no per-post allocation.
  constexpr std::size_t kFlatLimit = 48;
  std::vector<SupportedVector> out;
  std::vector<std::uint64_t> hashes;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
  bool use_map = false;
  for (std::size_t i = 0; i < channel.size(); ++i) {
    const ConstBitRow row = channel.row(i);
    const std::uint64_t h = row.content_hash();
    bool found = false;
    if (!use_map) {
      for (std::size_t idx = 0; idx < out.size(); ++idx) {
        if (hashes[idx] == h && out[idx].vector == row) {
          ++out[idx].support;
          found = true;
          break;
        }
      }
    } else {
      for (std::size_t idx : by_hash[h]) {
        if (out[idx].vector == row) {
          ++out[idx].support;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      if (!use_map && out.size() == kFlatLimit) {
        // Too many distinct vectors for linear scans; index what we have.
        use_map = true;
        for (std::size_t idx = 0; idx < out.size(); ++idx)
          by_hash[hashes[idx]].push_back(idx);
      }
      if (use_map) by_hash[h].push_back(out.size());
      hashes.push_back(h);
      out.push_back(SupportedVector{BitVector(row), 1});
    }
  }
  // The channel was read: free its store, so the next publication reuses
  // the memory instead of adding to it.
  if (retention_ == BoardRetention::kCounts) shard.by_tag.erase(it);
  std::stable_sort(out.begin(), out.end(),
                   [](const SupportedVector& a, const SupportedVector& b) {
                     return a.support > b.support;
                   });
  return out;
}

std::uint64_t BulletinBoard::report_count() const {
  return report_count_.load(std::memory_order_relaxed);
}

std::uint64_t BulletinBoard::vector_count() const {
  return vector_count_.load(std::memory_order_relaxed);
}

}  // namespace colscore
