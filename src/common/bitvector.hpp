// Bit-vector views and the owning BitVector, used for binary preference
// vectors and shared with BitMatrix rows.
//
// Preference distances are Hamming distances, so the representation is
// optimized for word-parallel XOR + popcount sweeps; all hot loops in the
// protocols (neighbor graphs, Select tournaments) reduce to these. Every
// bit operation is defined once, on the views, so the loops run over rows of
// a contiguous BitMatrix and over standalone BitVectors through one code path:
//
//   * ConstBitRow — non-owning read view (word pointer + bit count). Every
//     word-parallel read kernel (hamming, hamming_exceeds,
//     diff_positions_into, content_hash, ...) lives here.
//   * BitRow — mutable view (set, fill, randomize, ^=, ...). Assignment
//     writes *through* the view (proxy semantics, like
//     vector<bool>::reference); copy construction rebinds.
//   * BitVector — a BitRow that owns its words (inline up to 192 bits, an
//     exact-sized heap block above). It adds only construction, copy, move
//     and operator~; any API taking a view accepts it as a base.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
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
  BitVector gather(std::span<const ObjectId> positions) const;

  /// Owning copy of the viewed bits.
  BitVector to_bitvector() const;

  /// "0110..." debug rendering.
  std::string to_string() const;

  /// Stable 64-bit content hash (fnv-style over words), e.g. for
  /// deduplicating published vectors.
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

/// Content equality (size + bits). Found by ordinary lookup for BitRow and
/// BitVector operands too, since both derive; != is synthesized by rewriting.
bool operator==(const ConstBitRow& a, const ConstBitRow& b) noexcept;

class BitRow : public ConstBitRow {
 public:
  BitRow() = default;
  BitRow(std::uint64_t* words, std::size_t bits) noexcept : ConstBitRow(words, bits) {}
  BitRow(const BitRow&) = default;
  /// A BitVector converts as a base only from a non-const lvalue: `BitRow r
  /// = make_vector();` (would dangle at once) and `BitRow r = const_vector;`
  /// (would write through const) do not compile.
  template <class V>
    requires std::same_as<std::remove_cvref_t<V>, BitVector> &&
             (!std::same_as<V, BitVector&>)
  BitRow(V&&) = delete;

  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = 1ULL << (i % bitkernel::kWordBits);
    if (value)
      word_data()[i / bitkernel::kWordBits] |= mask;
    else
      word_data()[i / bitkernel::kWordBits] &= ~mask;
  }

  void flip(std::size_t i) noexcept {
    word_data()[i / bitkernel::kWordBits] ^= 1ULL << (i % bitkernel::kWordBits);
  }

  void fill(bool value) noexcept;

  /// Independently randomize every viewed bit with P(bit=1) = density.
  /// Filling a matrix row in place consumes the same RNG stream as
  /// randomizing a BitVector and copying it in.
  void randomize(Rng& rng, double density = 0.5) noexcept;

  /// Flips exactly `count` distinct positions chosen uniformly (count <=
  /// size).
  void flip_random(Rng& rng, std::size_t count);

  /// Copies the bits of `src` into the viewed storage (sizes must match).
  /// NOTE: proxy semantics — assignment writes through the view; copy
  /// construction rebinds the view.
  BitRow& operator=(const ConstBitRow& src) noexcept;
  BitRow& operator=(const BitRow& src) noexcept {
    return *this = static_cast<const ConstBitRow&>(src);
  }

  BitRow& operator^=(ConstBitRow other) noexcept;
  BitRow& operator&=(ConstBitRow other) noexcept;
  BitRow& operator|=(ConstBitRow other) noexcept;

  // A BitRow is only ever constructed over mutable words, so the view's
  // const pointer may be written through.
  std::uint64_t* word_data() noexcept { return const_cast<std::uint64_t*>(words_); }
};

/// Owning bit vector: a BitRow over its own words, so every kernel above is
/// its kernel too. Unlike a view, copying copies the bits and assignment
/// resizes to the source (value semantics).
class BitVector : public BitRow {
 public:
  BitVector() noexcept : BitRow(inline_words_, 0) {}
  /// Creates a vector of `size` bits, all set to `value`.
  explicit BitVector(std::size_t size, bool value = false);
  /// Owning copy of a row view (lets `BitVector v = matrix.row(p);` work).
  /*implicit*/ BitVector(ConstBitRow row);

  BitVector(const BitVector& other) : BitVector(ConstBitRow(other)) {}
  BitVector(BitVector&& other) noexcept { steal(other); }
  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector() { release(); }

  BitVector operator~() const;

 private:
  // Small-buffer storage: protocols shuttle millions of short vectors
  // (subset outputs, scratch masks) per suite, so vectors of up to
  // kInlineWords * 64 bits live inline — no heap traffic — while longer
  // ones use an exact-sized heap block. Size changes only by assignment, so
  // no capacity bookkeeping is needed. Invariant: the words are inline iff
  // word_count(size()) <= kInlineWords.
  static constexpr std::size_t kInlineWords = 3;

  bool is_inline() const noexcept { return words_ == inline_words_; }
  /// Points the view at zero-initialized storage for `size` bits.
  void acquire(std::size_t size);
  void release() noexcept;
  /// Takes over `other`'s bits (re-pointing at our own inline words when
  /// they were inline) and leaves `other` empty.
  void steal(BitVector& other) noexcept;

  std::uint64_t inline_words_[kInlineWords] = {};
};

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
