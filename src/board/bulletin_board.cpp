#include "src/board/bulletin_board.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"

namespace colscore {

std::uint64_t BulletinBoard::report_key(std::uint64_t tag, ObjectId object) {
  return mix_keys(tag, 0x5245504fULL, object);
}

void BulletinBoard::post_report(std::uint64_t tag, PlayerId author, ObjectId object,
                                bool value) {
  const std::uint64_t key = report_key(tag, object);
  ReportShard& shard = report_shards_[key % kShards];
  std::lock_guard lock(shard.mutex);
  shard.by_key[key].push_back(ProbeReport{author, object, value});
  report_count_.fetch_add(1, std::memory_order_relaxed);
}

void BulletinBoard::post_reports(std::uint64_t tag, ObjectId object,
                                 std::span<const PlayerId> authors,
                                 std::span<const std::uint8_t> values) {
  CS_ASSERT(authors.size() == values.size(), "post_reports: size mismatch");
  if (authors.empty()) return;
  const std::uint64_t key = report_key(tag, object);
  ReportShard& shard = report_shards_[key % kShards];
  std::lock_guard lock(shard.mutex);
  auto& bucket = shard.by_key[key];
  bucket.reserve(bucket.size() + authors.size());
  for (std::size_t i = 0; i < authors.size(); ++i)
    bucket.push_back(ProbeReport{authors[i], object, values[i] != 0});
  report_count_.fetch_add(authors.size(), std::memory_order_relaxed);
}

std::vector<ProbeReport> BulletinBoard::reports_for(std::uint64_t tag,
                                                    ObjectId object) const {
  const std::uint64_t key = report_key(tag, object);
  const ReportShard& shard = report_shards_[key % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.by_key.find(key);
  return it == shard.by_key.end() ? std::vector<ProbeReport>{} : it->second;
}

std::vector<ProbeReport> BulletinBoard::all_reports(std::uint64_t tag) const {
  std::vector<ProbeReport> out;
  for (const auto& shard : report_shards_) {
    std::lock_guard lock(shard.mutex);
    // colscore-lint: allow(CL007) buckets are re-sorted by object id below,
    // so the map's hash order cannot reach the caller
    for (const auto& [key, reports] : shard.by_key) {
      // Keys embed the tag; verify membership by recomputing.
      if (!reports.empty() && report_key(tag, reports.front().object) == key) {
        out.insert(out.end(), reports.begin(), reports.end());
      }
    }
  }
  // One object's reports share a bucket, so a stable sort by object id keeps
  // posting order within each object while fixing the cross-object order.
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

std::vector<BulletinBoard::SupportedVector> BulletinBoard::vectors_by_support(
    std::uint64_t tag) const {
  // Count support in place under the shard lock: rows are hashed and
  // compared inside the packed store, and only the distinct vectors are
  // copied out.
  const VectorShard& shard = vector_shards_[tag % kShards];
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
