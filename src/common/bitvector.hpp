// Dense bit vector used for binary preference vectors, plus the zero-copy
// row views shared with BitMatrix.
//
// Preference distances are Hamming distances, so the representation is
// optimized for word-parallel XOR + popcount sweeps; all hot loops in the
// protocols (neighbor graphs, Select tournaments) reduce to these. The view
// types let those loops run over rows of a contiguous BitMatrix and over
// standalone BitVectors through one code path:
//
//   * ConstBitRow — non-owning read view (word pointer + bit count). Every
//     word-parallel kernel (hamming, hamming_exceeds, diff_positions_into,
//     content_hash, ...) lives here; BitVector converts implicitly, so any
//     API taking ConstBitRow accepts both.
//   * BitRow — mutable view. Assignment writes *through* the view (proxy
//     semantics, like vector<bool>::reference); copy construction rebinds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bitkernels.hpp"
#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace colscore {

class BitVector;

class ConstBitRow {
 public:
  ConstBitRow() = default;
  ConstBitRow(const std::uint64_t* words, std::size_t bits) noexcept
      : words_(words), bits_(bits) {}
  /*implicit*/ ConstBitRow(const BitVector& v) noexcept;  // zero-copy view

  std::size_t size() const noexcept { return bits_; }
  bool empty() const noexcept { return bits_ == 0; }

  bool get(std::size_t i) const noexcept {
    return (words_[i / bitkernel::kWordBits] >> (i % bitkernel::kWordBits)) & 1ULL;
  }

  std::size_t popcount() const noexcept {
    return bitkernel::popcount(words_, bitkernel::word_count(bits_));
  }

  std::size_t hamming(ConstBitRow other) const noexcept;

  /// True iff hamming(*this, other) > threshold, with an early exit as soon
  /// as the running distance crosses the threshold.
  bool hamming_exceeds(ConstBitRow other, std::size_t threshold) const noexcept;

  /// Positions where `this` and `other` differ, ascending.
  std::vector<std::size_t> diff_positions(ConstBitRow other) const;
  /// Appends differing positions to `out` (caller-owned scratch buffer).
  void diff_positions_into(ConstBitRow other, std::vector<std::size_t>& out) const;

  /// New vector containing bits at `positions` (in the given order).
  BitVector gather(std::span<const std::size_t> positions) const;
  BitVector gather(std::span<const ObjectId> positions) const;

  /// Owning copy of the viewed bits.
  BitVector to_bitvector() const;

  /// "0110..." debug rendering.
  std::string to_string() const;

  std::uint64_t content_hash() const noexcept {
    return bitkernel::content_hash(words_, bits_);
  }

  std::span<const std::uint64_t> words() const noexcept {
    return {words_, bitkernel::word_count(bits_)};
  }

 protected:
  const std::uint64_t* words_ = nullptr;
  std::size_t bits_ = 0;
};

/// Content equality (size + bits). Found by ordinary lookup for BitVector
/// operands too, since both convert; != is synthesized by rewriting.
bool operator==(const ConstBitRow& a, const ConstBitRow& b) noexcept;

class BitRow : public ConstBitRow {
 public:
  BitRow() = default;
  BitRow(std::uint64_t* words, std::size_t bits) noexcept
      : ConstBitRow(words, bits), mwords_(words) {}
  /*implicit*/ BitRow(BitVector& v) noexcept;  // zero-copy mutable view

  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = 1ULL << (i % bitkernel::kWordBits);
    if (value)
      mwords_[i / bitkernel::kWordBits] |= mask;
    else
      mwords_[i / bitkernel::kWordBits] &= ~mask;
  }

  void flip(std::size_t i) noexcept {
    mwords_[i / bitkernel::kWordBits] ^= 1ULL << (i % bitkernel::kWordBits);
  }

  void fill(bool value) noexcept;

  /// Independently randomize every viewed bit with P(bit=1) = density. Draw
  /// order matches BitVector::randomize exactly, so filling a matrix row in
  /// place consumes the same RNG stream as building a BitVector and copying.
  void randomize(Rng& rng, double density = 0.5) noexcept;

  /// Flips exactly `count` distinct positions chosen uniformly (count <=
  /// size). Same draw order as BitVector::flip_random.
  void flip_random(Rng& rng, std::size_t count);

  /// Copies the bits of `src` into the viewed storage (sizes must match).
  /// NOTE: proxy semantics — assignment writes through the view; copy
  /// construction rebinds the view.
  BitRow& operator=(const ConstBitRow& src) noexcept;
  BitRow& operator=(const BitRow& src) noexcept {
    return *this = static_cast<const ConstBitRow&>(src);
  }
  BitRow& operator=(const BitVector& src) noexcept {
    return *this = ConstBitRow(src);
  }
  BitRow(const BitRow&) = default;

  BitRow& operator^=(ConstBitRow other) noexcept;
  BitRow& operator&=(ConstBitRow other) noexcept;
  BitRow& operator|=(ConstBitRow other) noexcept;

  std::uint64_t* word_data() noexcept { return mwords_; }

 private:
  std::uint64_t* mwords_ = nullptr;
};

class BitVector {
 public:
  BitVector() noexcept : size_(0) { store_.heap = nullptr; }
  /// Creates a vector of `size` bits, all set to `value`.
  explicit BitVector(std::size_t size, bool value = false);
  /// Owning copy of a row view (lets `BitVector v = matrix.row(p);` work).
  /*implicit*/ BitVector(ConstBitRow row);

  BitVector(const BitVector& other);
  BitVector(BitVector&& other) noexcept;
  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool get(std::size_t i) const noexcept;
  void set(std::size_t i, bool value) noexcept;
  void flip(std::size_t i) noexcept;

  /// Number of set bits.
  std::size_t popcount() const noexcept;

  /// Hamming distance; both sides must have equal size. Accepts BitVectors
  /// and BitMatrix rows alike (ConstBitRow converts from both).
  std::size_t hamming(ConstBitRow other) const noexcept;

  /// True iff hamming(*this, other) > threshold (early-exit scan).
  bool hamming_exceeds(ConstBitRow other, std::size_t threshold) const noexcept;

  /// Positions where `this` and `other` differ, ascending.
  std::vector<std::size_t> diff_positions(ConstBitRow other) const;
  /// Appends differing positions to `out` (caller-owned scratch buffer).
  void diff_positions_into(ConstBitRow other, std::vector<std::size_t>& out) const;

  /// New vector containing bits at `positions` (in the given order).
  BitVector gather(std::span<const std::size_t> positions) const;
  BitVector gather(std::span<const ObjectId> positions) const;

  void fill(bool value) noexcept;
  /// Independently randomize every bit with P(bit=1) = density.
  void randomize(Rng& rng, double density = 0.5);

  /// Flips exactly `count` distinct positions chosen uniformly (count <= size).
  void flip_random(Rng& rng, std::size_t count);

  BitVector& operator^=(ConstBitRow other) noexcept;
  BitVector& operator&=(ConstBitRow other) noexcept;
  BitVector& operator|=(ConstBitRow other) noexcept;
  BitVector operator~() const;

  /// "0110..." debug rendering.
  std::string to_string() const;

  /// Stable 64-bit content hash (fnv-style over words); used for vector
  /// deduplication on the bulletin board.
  std::uint64_t content_hash() const noexcept;

  std::span<const std::uint64_t> words() const noexcept {
    return {word_ptr(), bitkernel::word_count(size_)};
  }
  std::uint64_t* word_data() noexcept { return word_ptr(); }

 private:
  // Small-buffer storage: protocols shuttle millions of short vectors
  // (board posts, subset outputs) per suite, so vectors of up to
  // kInlineWords * 64 bits live inline — no heap traffic — while longer
  // ones use an exact-sized heap block. Size is fixed at construction
  // (there is no resize), so no capacity bookkeeping is needed.
  static constexpr std::size_t kInlineWords = 3;

  bool is_inline() const noexcept {
    return bitkernel::word_count(size_) <= kInlineWords;
  }
  const std::uint64_t* word_ptr() const noexcept {
    return is_inline() ? store_.inline_words : store_.heap;
  }
  std::uint64_t* word_ptr() noexcept {
    return is_inline() ? store_.inline_words : store_.heap;
  }
  /// Allocates (or inlines) zero-initialized storage for `size` bits.
  void acquire(std::size_t size);
  void release() noexcept;
  void clear_padding() noexcept;

  std::size_t size_ = 0;
  union Store {
    std::uint64_t inline_words[kInlineWords];
    std::uint64_t* heap;
  } store_;
};

inline ConstBitRow::ConstBitRow(const BitVector& v) noexcept
    : words_(v.words().data()), bits_(v.size()) {}

inline BitRow::BitRow(BitVector& v) noexcept
    : ConstBitRow(v), mwords_(v.word_data()) {}

inline std::size_t ConstBitRow::hamming(ConstBitRow other) const noexcept {
  CS_ASSERT(bits_ == other.bits_, "hamming: size mismatch");
  return bitkernel::hamming(words_, other.words_, bitkernel::word_count(bits_));
}

inline bool ConstBitRow::hamming_exceeds(ConstBitRow other,
                                         std::size_t threshold) const noexcept {
  CS_ASSERT(bits_ == other.bits_, "hamming_exceeds: size mismatch");
  return bitkernel::hamming_exceeds(words_, other.words_,
                                    bitkernel::word_count(bits_), threshold);
}

inline void ConstBitRow::diff_positions_into(ConstBitRow other,
                                             std::vector<std::size_t>& out) const {
  CS_ASSERT(bits_ == other.bits_, "diff_positions: size mismatch");
  bitkernel::diff_positions_into(words_, other.words_,
                                 bitkernel::word_count(bits_), out);
}

inline std::vector<std::size_t> ConstBitRow::diff_positions(ConstBitRow other) const {
  std::vector<std::size_t> out;
  diff_positions_into(other, out);
  return out;
}

/// Fresh uniform-random vector.
BitVector random_bitvector(std::size_t size, Rng& rng, double density = 0.5);

}  // namespace colscore
