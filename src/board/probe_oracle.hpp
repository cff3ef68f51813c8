// The probe model from §2 of the paper: each probe by player p on object o
// reveals p's own preference bit v(p)_o. The oracle owns the interaction with
// ground truth and charges every probe to the prober, so probe-complexity
// claims (Lemmas 10-11) are measured, not estimated.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bitkernels.hpp"
#include "src/common/bitvector.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/types.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {

class ProbeMemo;
class WideProbeMemo;

class ProbeOracle {
 public:
  enum class BudgetMode {
    kTrack,  // count probes; never block
    kHard,   // abort if any player exceeds `budget` probes (failure injection)
  };

  explicit ProbeOracle(const PreferenceMatrix& truth,
                       BudgetMode mode = BudgetMode::kTrack, std::uint64_t budget = 0);

  /// Performs one probe: charges player p and returns v(p)_o. Inline word
  /// math on the packed truth row — single probes from adaptive elimination
  /// loops are one of the hottest paths.
  bool probe(PlayerId p, ObjectId o) {
    CS_ASSERT(p < counts_.size(), "probe: bad player id");
    CS_ASSERT(o < n_objects_, "probe: bad object id");
    charge(p, 1);
    return read_bit(p, o);
  }

  /// Word-level probe: fills out with v(p) over the contiguous object range
  /// [first_object, first_object + n), charging all n probes in a single
  /// counter round-trip and moving the bits straight off the packed truth
  /// row (a word copy or funnel shift per word). `out` must view exactly n
  /// bits; its padding stays zero. Semantically identical to probing each
  /// object in order.
  void probe_row(PlayerId p, ObjectId first_object, std::size_t n, BitRow out);

  /// Batched scattered probe: bit i of `out` = v(p)_objects[i], charging
  /// objects.size() probes at once (duplicates pay, like repeated probe()
  /// calls without a memo). The bits are gathered off the packed truth row
  /// a word at a time, inline. `out` must view at least objects.size() bits.
  void probe_gather(PlayerId p, std::span<const ObjectId> objects, BitRow out) {
    CS_ASSERT(p < counts_.size(), "probe_gather: bad player id");
    CS_ASSERT(out.size() >= objects.size(), "probe_gather: output too small");
    if (objects.empty()) return;
    charge(p, objects.size());
    gather_into(p, objects, out);
  }

  /// Uncharged forms of the two bulk reads above, for dishonest players
  /// (same rationale as adversary_peek).
  void adversary_peek_row(PlayerId p, ObjectId first_object, std::size_t n,
                          BitRow out) const;
  void adversary_peek_gather(PlayerId p, std::span<const ObjectId> objects,
                             BitRow out) const {
    CS_ASSERT(out.size() >= objects.size(), "adversary_peek_gather: output too small");
    if (objects.empty()) return;
    gather_into(p, objects, out);
  }

  /// Reads truth WITHOUT charging. Only adversaries use this: the paper's
  /// Byzantine players are omniscient (§2 grants them every preference, so a
  /// free read only makes the simulated adversary stronger); honest protocol
  /// code must never call it — tests enforce this by budget accounting.
  bool adversary_peek(PlayerId p, ObjectId o) const { return read_bit(p, o); }

  std::uint64_t probes_by(PlayerId p) const;
  std::uint64_t total_probes() const;
  std::uint64_t max_probes() const;

  /// Resets all counters (between experiment repetitions).
  void reset_counts();

  /// Binds the execution policy this oracle's probes run under: derives the
  /// serial-charging hint from it. When no two threads will ever charge
  /// concurrently (worker_count() <= 1: every protocol loop runs inline),
  /// counters use plain read-modify-writes instead of lock-prefixed atomic
  /// RMWs -- a measurable win at tens of millions of charges per suite;
  /// otherwise exact counting under concurrent probes is part of the oracle
  /// contract. run_scenario binds its per-scenario policy right after
  /// construction.
  void bind_policy(const ExecPolicy& policy) {
    serial_charges_ = policy.worker_count() <= 1;
  }

  std::size_t n_players() const { return counts_.size(); }
  std::size_t n_objects() const { return n_objects_; }

 private:
  friend class ProbeMemo;
  friend class WideProbeMemo;

  /// Adds `amount` probes to p's counter (single round-trip) and enforces
  /// the kHard budget.
  void charge(PlayerId p, std::uint64_t amount) {
    std::uint64_t now;
    if (serial_charges_) {
      now = counts_[p].load(std::memory_order_relaxed) + amount;
      counts_[p].store(now, std::memory_order_relaxed);
    } else {
      now = counts_[p].fetch_add(amount, std::memory_order_relaxed) + amount;
    }
    if (mode_ == BudgetMode::kHard) {
      CS_ASSERT(now <= budget_, "probe budget exceeded in kHard mode");
    }
  }

  /// Player p's packed truth row.
  const std::uint64_t* truth_row(PlayerId p) const {
    return rows_ + p * row_stride_;
  }

  /// Uncharged truth read: inline word math on the packed row.
  bool read_bit(PlayerId p, ObjectId o) const {
    const std::uint64_t word = truth_row(p)[o / bitkernel::kWordBits];
    return (word >> (o % bitkernel::kWordBits)) & 1ULL;
  }

  /// Gathers a non-empty slate into `out`: each chunk of 64 objects is
  /// assembled in a register and stored as one word; the last, partial word
  /// keeps out's bits past the slate.
  void gather_into(PlayerId p, std::span<const ObjectId> objects, BitRow out) const {
    const std::uint64_t* row = truth_row(p);
    std::uint64_t* dst = out.word_data();
    for (std::size_t base = 0; base < objects.size(); base += bitkernel::kWordBits) {
      const std::size_t len = std::min(objects.size() - base, bitkernel::kWordBits);
      std::uint64_t bits = 0;
      for (std::size_t i = 0; i < len; ++i) {
        const ObjectId o = objects[base + i];
        CS_ASSERT(o < n_objects_, "probe_gather: bad object id");
        bits |= ((row[o / bitkernel::kWordBits] >> (o % bitkernel::kWordBits)) & 1ULL) << i;
      }
      const std::uint64_t keep = len == bitkernel::kWordBits ? 0 : ~0ULL << len;
      std::uint64_t& word = dst[base / bitkernel::kWordBits];
      word = (word & keep) | bits;
    }
  }

  BudgetMode mode_;
  std::uint64_t budget_;
  /// The truth matrix's flat row storage (player p's row at
  /// rows_ + p * row_stride_), cached so the hot probe paths read bits with
  /// no indirection through the matrix.
  const std::uint64_t* rows_;
  std::size_t row_stride_;
  std::size_t n_objects_;
  bool serial_charges_ = false;
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// Player p's memo over a universe of at most 64 objects (bit i is
/// objects[i]), for tournaments that look at one coordinate many times. The
/// constructor reads p's truth over the whole universe once, uncharged;
/// read(mask) returns the bits on `mask` and marks those coordinates seen;
/// the destructor charges the seen coordinates in one counter round-trip,
/// to honest players only. The bits are reachable only through read (and
/// known, once read), so every coordinate a caller looks at is charged
/// exactly once -- the bill of single probes behind a memo. The charge lands
/// when the memo goes out of scope, so a kHard budget aborts iff the whole
/// bill exceeds it.
class ProbeMemo {
 public:
  ProbeMemo(ProbeOracle& oracle, PlayerId p, std::span<const ObjectId> objects,
            bool charged)
      : oracle_(oracle), p_(p), charged_(charged) {
    CS_ASSERT(p < oracle.counts_.size(), "probe memo: bad player id");
    CS_ASSERT(objects.size() <= bitkernel::kWordBits, "probe memo: universe over 64 objects");
    universe_ = objects.size() == bitkernel::kWordBits ? ~0ULL : (1ULL << objects.size()) - 1;
    if (!objects.empty()) oracle.gather_into(p, objects, BitRow(&value_, objects.size()));
  }
  ~ProbeMemo() {
    if (charged_ && seen_ != 0) oracle_.charge(p_, seen_count());
  }
  ProbeMemo(const ProbeMemo&) = delete;
  ProbeMemo& operator=(const ProbeMemo&) = delete;

  /// v(p) on the coordinates of `mask` (zero elsewhere); marks them seen.
  std::uint64_t read(std::uint64_t mask) {
    CS_ASSERT((mask & ~universe_) == 0, "probe memo: read outside the universe");
    seen_ |= mask;
    return value_ & mask;
  }

  /// v(p) on `mask` if every coordinate of it has been read already, so
  /// reading it again adds nothing to the bill; nullopt otherwise.
  std::optional<std::uint64_t> known(std::uint64_t mask) const noexcept {
    if ((mask & ~seen_) != 0) return std::nullopt;
    return value_ & mask;
  }

  /// Distinct coordinates read so far: the bill an honest player pays.
  std::size_t seen_count() const noexcept {
    return static_cast<std::size_t>(std::popcount(seen_));
  }

 private:
  ProbeOracle& oracle_;
  PlayerId p_;
  bool charged_;
  std::uint64_t universe_ = 0;
  std::uint64_t value_ = 0;
  std::uint64_t seen_ = 0;
};

/// The same memo over a universe of any size (coordinate c is objects[c]),
/// for the general Select tournament and ZeroRadius adoption. Its seen and
/// value planes live in `planes`, the caller's workspace words, so a memo
/// costs no allocation once the buffer has grown. Truth is read lazily --
/// one uncharged bit the first time a coordinate is looked at -- because
/// most wide plays look at a handful of coordinates of a large universe.
/// The bill is ProbeMemo's: the distinct coordinates read, charged once when
/// the memo goes out of scope, to honest players only. (The two destructors
/// spell that rule alike rather than share a helper: every shared spelling
/// tried changed play_small's generated code, the hottest loop in a suite.)
class WideProbeMemo {
 public:
  WideProbeMemo(ProbeOracle& oracle, PlayerId p, std::span<const ObjectId> objects,
                bool charged, std::vector<std::uint64_t>& planes)
      : oracle_(oracle), p_(p), charged_(charged), objects_(objects),
        words_(bitkernel::word_count(objects.size())) {
    CS_ASSERT(p < oracle.counts_.size(), "probe memo: bad player id");
    planes.assign(2 * words_, 0);
    seen_ = planes.data();
    value_ = seen_ + words_;
  }
  ~WideProbeMemo() {
    if (charged_ && seen_count_ != 0) oracle_.charge(p_, seen_count_);
  }
  WideProbeMemo(const WideProbeMemo&) = delete;
  WideProbeMemo& operator=(const WideProbeMemo&) = delete;

  /// v(p) on coordinate c; marks it seen.
  bool read(std::size_t c) {
    CS_ASSERT(c < objects_.size(), "probe memo: read outside the universe");
    const std::size_t w = c / bitkernel::kWordBits;
    const std::uint64_t bit = 1ULL << (c % bitkernel::kWordBits);
    if ((seen_[w] & bit) == 0) {
      seen_[w] |= bit;
      ++seen_count_;
      if (oracle_.read_bit(p_, objects_[c])) value_[w] |= bit;
    }
    return (value_[w] & bit) != 0;
  }

  /// Whether coordinate c has been read (reveals no bit).
  bool seen(std::size_t c) const {
    CS_ASSERT(c < objects_.size(), "probe memo: coordinate outside the universe");
    return (seen_[c / bitkernel::kWordBits] >> (c % bitkernel::kWordBits)) & 1ULL;
  }

  /// Overwrites `out` (one bit per coordinate) with v(p) on every
  /// coordinate read so far, a word at a time; other bits are kept.
  void patch(BitRow out) const {
    CS_ASSERT(out.size() == objects_.size(), "probe memo: patch size mismatch");
    std::uint64_t* dst = out.word_data();
    for (std::size_t w = 0; w < words_; ++w)
      dst[w] = (dst[w] & ~seen_[w]) | value_[w];
  }

  /// Distinct coordinates read so far: the bill an honest player pays.
  std::size_t seen_count() const noexcept { return seen_count_; }

 private:
  ProbeOracle& oracle_;
  PlayerId p_;
  bool charged_;
  std::span<const ObjectId> objects_;
  std::size_t words_;
  std::uint64_t* seen_ = nullptr;
  std::uint64_t* value_ = nullptr;  // bits set only on seen coordinates
  std::size_t seen_count_ = 0;
};

}  // namespace colscore
