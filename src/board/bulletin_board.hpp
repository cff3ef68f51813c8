// The public bulletin board from §2 of the paper: an append-only shared
// memory every player can read and write. Records are keyed by their author;
// there is no mutation API, so a dishonest player cannot alter data written
// by honest players — exactly the model assumption.
//
// Two record kinds are enough for every protocol in the paper:
//   * probe reports   — "player a claims its preference for object o is b"
//   * vector posts    — "player a claims its preference vector (for the
//                        object set identified by the channel tag) is w"
// Channels are identified by 64-bit tags derived from protocol phase keys.
//
// Retention. The board is a medium, not an archive: no protocol reads a
// probe report back, and each vector channel is read exactly once, by the
// support count that follows its publication. So the default board
// (BoardRetention::kCounts) keeps counts, not posts:
//   * a probe report only adds to report_count();
//   * a vector channel is one flat append-only store in posting order until
//     take_support() ranks it, and then it is freed.
// report_count() and vector_count() are exact on every board, and the
// support ranking does not depend on retention. BoardRetention::kFull also
// keeps every report and leaves each vector channel in place after its
// support read, so the log readers (all_reports, reports_for, vectors) work;
// it is the reference tests compare the counts board against, and nothing in
// the library builds one. On a counts board the log readers throw
// std::logic_error rather than return an empty log.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bitvector.hpp"
#include "src/common/types.hpp"

namespace colscore {

struct VectorPost {
  PlayerId author = kInvalidPlayer;
  BitVector vector;
};

/// What a board keeps of its posts (see the header comment).
enum class BoardRetention {
  kCounts,  // report counts, and vector channels until their support read
  kFull,    // every post, for as long as the board lives (tests only)
};

class BulletinBoard {
 public:
  explicit BulletinBoard(BoardRetention retention = BoardRetention::kCounts);
  BulletinBoard(const BulletinBoard&) = delete;
  BulletinBoard& operator=(const BulletinBoard&) = delete;

  // ---- probe-report channel -------------------------------------------
  void post_report(std::uint64_t tag, PlayerId author, ObjectId object, bool value);

  /// Posts `reports` to channel `tag` in order — board state identical to
  /// post_report in a loop, but one count update (and, on a kFull board,
  /// one lock acquisition) for the whole block: voting posts a cluster's
  /// votes at once.
  void post_reports(std::uint64_t tag, std::span<const ProbeReport> reports);

  /// All reports about `object` on channel `tag` (posting order). Filters
  /// the whole channel. kFull only.
  std::vector<ProbeReport> reports_for(std::uint64_t tag, ObjectId object) const;

  /// All reports on channel `tag` (ascending object id; posting order
  /// within an object). kFull only.
  std::vector<ProbeReport> all_reports(std::uint64_t tag) const;

  // ---- vector channel ---------------------------------------------------
  /// Appends `author`'s claim `vector` to channel `tag`. A channel's first
  /// post fixes its width; every later post must have the same width.
  /// Takes a view, so a BitVector, a BitMatrix row or a PreferenceMatrix row
  /// posts without an intermediate copy.
  void post_vector(std::uint64_t tag, PlayerId author, ConstBitRow vector);

 private:
  // One vector channel as packed columns. A channel is resident from its
  // first post to its support read, so the layout sets the peak of one
  // publication: a post costs its author id plus word_count(width) words
  // (12 bytes for 64 bits or fewer) instead of a 40-byte VectorPost. Row i
  // occupies words[i * stride(), (i + 1) * stride()).
  struct VectorChannel {
    std::size_t width = 0;  // bits per post, fixed by the first post
    std::vector<PlayerId> authors;
    std::vector<std::uint64_t> words;

    std::size_t size() const noexcept { return authors.size(); }
    std::size_t stride() const noexcept { return bitkernel::word_count(width); }
    ConstBitRow row(std::size_t i) const noexcept {
      return ConstBitRow(words.data() + i * stride(), width);
    }
    void append(PlayerId author, ConstBitRow vector) {
      if (authors.empty()) width = vector.size();
      CS_ASSERT(vector.size() == width,
                "BulletinBoard: vector post width differs from the channel's width");
      authors.push_back(author);
      const std::span<const std::uint64_t> w = vector.words();
      if (w.size() == 1) {
        words.push_back(w[0]);  // the common SmallRadius post: one word
      } else {
        words.insert(words.end(), w.begin(), w.end());
      }
    }
  };

 public:
  /// Locked appender for a serial publication loop: one shard lock, one
  /// bucket lookup and one vector_count update amortized over every post to
  /// the channel. Board state is identical to calling post_vector per player
  /// in the same order, but the posts are counted when the writer closes
  /// (a moved-from writer counts nothing). Holds the shard lock for its
  /// lifetime — keep the scope tight and do not touch other board channels
  /// while it lives.
  class VectorChannelWriter {
   public:
    VectorChannelWriter(VectorChannelWriter&& other) noexcept
        : lock_(std::move(other.lock_)),
          channel_(other.channel_),
          count_(std::exchange(other.count_, nullptr)),
          posted_(other.posted_) {}
    VectorChannelWriter& operator=(VectorChannelWriter&&) = delete;
    ~VectorChannelWriter() {
      if (count_ != nullptr) count_->fetch_add(posted_, std::memory_order_relaxed);
    }

    void post(PlayerId author, ConstBitRow vector) {
      channel_->append(author, vector);
      ++posted_;
    }

   private:
    friend class BulletinBoard;
    VectorChannelWriter(std::unique_lock<std::mutex> lock, VectorChannel& channel,
                        std::atomic<std::uint64_t>& count)
        : lock_(std::move(lock)), channel_(&channel), count_(&count) {}
    std::unique_lock<std::mutex> lock_;
    VectorChannel* channel_;
    std::atomic<std::uint64_t>* count_;
    std::uint64_t posted_ = 0;
  };
  VectorChannelWriter vector_channel(std::uint64_t tag);

  /// All vector posts on channel `tag` in posting order, copied out of the
  /// packed store. kFull only: the protocols read support counts instead.
  std::vector<VectorPost> vectors(std::uint64_t tag) const;

  /// Distinct vectors on channel `tag` with their support counts, most
  /// supported first (ties by first appearance). The core voting primitive
  /// of ZeroRadius step 4. The read consumes the channel on a kCounts board:
  /// its store is freed, and a second call returns nothing. A kFull board
  /// leaves the channel readable.
  struct SupportedVector {
    BitVector vector;
    std::size_t support = 0;
  };
  std::vector<SupportedVector> take_support(std::uint64_t tag);

  // ---- accounting ---------------------------------------------------------
  std::uint64_t report_count() const;
  std::uint64_t vector_count() const;

 private:
  static constexpr std::size_t kShards = 64;
  struct ReportShard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<ProbeReport>> by_tag;
  };
  struct VectorShard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, VectorChannel> by_tag;
  };

  const BoardRetention retention_;
  // The report log: kShards shards on a kFull board, null on a kCounts one.
  std::unique_ptr<ReportShard[]> report_log_;
  VectorShard vector_shards_[kShards];
  // Running totals, exact under either retention.
  std::atomic<std::uint64_t> report_count_{0};
  std::atomic<std::uint64_t> vector_count_{0};
};

}  // namespace colscore
