// Word-parallel kernels over raw 64-bit word arrays.
//
// BitVector and the BitMatrix row views (BitRow/ConstBitRow) share these so
// the hot loops — Hamming sweeps in the neighbor graph, diff enumeration in
// the Select tournaments — compile to the same XOR+popcount code regardless
// of which container owns the bits. All functions assume the caller has
// validated sizes and that padding bits past `bits` in the last word are
// zero (both containers maintain that invariant).
//
// The entry points here are *dispatched*: rows at or above
// simd::kDispatchMinWords route through the runtime-selected SIMD tier
// (src/common/simd.hpp — AVX-512 VPOPCNTDQ / AVX2 Harley-Seal / scalar),
// smaller ones stay on the inline scalar forms. The scalar forms live in
// bitkernel::scalar and double as the portable fallback tier and the
// reference the SIMD tiers are cross-checked against (tests/test_simd.cpp);
// their tail loops and the final-word mask are shared helpers so the scalar
// and SIMD paths cannot drift.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/common/simd.hpp"

namespace colscore::bitkernel {

inline constexpr std::size_t kWordBits = 64;

inline constexpr std::size_t word_count(std::size_t bits) noexcept {
  return (bits + kWordBits - 1) / kWordBits;
}

/// Mask keeping the low `nbits` (1 <= nbits < 64) bits of a word. The single
/// source of truth for the padding-bits-are-zero invariant: every path that
/// writes a partial final word (scalar and SIMD extract_bits, the
/// containers' fill/randomize) masks through this.
inline constexpr std::uint64_t low_mask(std::size_t nbits) noexcept {
  return (1ULL << nbits) - 1;
}

// ---- scalar reference forms (the portable fallback tier) --------------------

namespace scalar {

/// Shared tail: popcount of words [i, words). Both the 4-way-unrolled scalar
/// bulk loops and every SIMD tier's remainder land here.
inline std::size_t popcount_tail(const std::uint64_t* w, std::size_t i,
                                 std::size_t words) noexcept {
  std::size_t total = 0;
  for (; i < words; ++i)
    total += static_cast<std::size_t>(std::popcount(w[i]));
  return total;
}

/// Shared tail: popcount of a[i]^b[i] for words [i, words).
inline std::size_t hamming_tail(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t i, std::size_t words) noexcept {
  std::size_t total = 0;
  for (; i < words; ++i)
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
  return total;
}

/// Shared tail: dst[i] ^= src[i] for words [i, words).
inline void xor_tail(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t i, std::size_t words) noexcept {
  for (; i < words; ++i) dst[i] ^= src[i];
}

inline std::size_t popcount(const std::uint64_t* w, std::size_t words) noexcept {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    total += static_cast<std::size_t>(std::popcount(w[i]));
    total += static_cast<std::size_t>(std::popcount(w[i + 1]));
    total += static_cast<std::size_t>(std::popcount(w[i + 2]));
    total += static_cast<std::size_t>(std::popcount(w[i + 3]));
  }
  return total + popcount_tail(w, i, words);
}

inline std::size_t hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    total += static_cast<std::size_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    total += static_cast<std::size_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    total += static_cast<std::size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  return total + hamming_tail(a, b, i, words);
}

/// True iff hamming(a, b) > threshold; stops scanning as soon as the running
/// distance crosses the threshold. Far pairs (the common case in neighbor
/// graph construction, where most players sit in other clusters) exit after a
/// handful of words instead of scanning the whole row. The check runs once
/// per 4-word block so near pairs pay almost nothing for it.
inline bool hamming_exceeds(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words, std::size_t threshold) noexcept {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    total += static_cast<std::size_t>(std::popcount(a[i] ^ b[i]));
    total += static_cast<std::size_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    total += static_cast<std::size_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    total += static_cast<std::size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
    if (total > threshold) return true;
  }
  return total + hamming_tail(a, b, i, words) > threshold;
}

inline void xor_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    dst[i] ^= src[i];
    dst[i + 1] ^= src[i + 1];
    dst[i + 2] ^= src[i + 2];
    dst[i + 3] ^= src[i + 3];
  }
  xor_tail(dst, src, i, words);
}

/// Shared tail of the bit-extraction shift: writes out-words [i, out_words)
/// given the source split (base word + bit offset), then masks the final
/// word so padding bits past n come out zero. Every SIMD tier finishes its
/// vector bulk through this, so the boundary handling (the last source word
/// may not exist) and the padding mask live in exactly one place.
inline void extract_tail(const std::uint64_t* src, std::size_t src_words,
                         std::size_t base, std::size_t off, std::size_t i,
                         std::size_t n, std::uint64_t* out) noexcept {
  const std::size_t out_words = word_count(n);
  if (off == 0) {
    for (; i < out_words; ++i) out[i] = src[base + i];
  } else {
    for (; i < out_words; ++i) {
      const std::uint64_t lo = src[base + i] >> off;
      const std::uint64_t hi =
          base + i + 1 < src_words ? src[base + i + 1] << (kWordBits - off) : 0;
      out[i] = lo | hi;
    }
  }
  const std::size_t rem = n % kWordBits;
  if (rem != 0) out[out_words - 1] &= low_mask(rem);
}

/// Copies bits [first, first + n) of a packed source row into `out` (bit i
/// of out = source bit first + i). Writes word_count(n) words; padding bits
/// past n in the last word come out zero. `src_words` is the number of
/// valid words at `src` — reads never go past it (the tail beyond a
/// partial last word is treated as zero).
inline void extract_bits(const std::uint64_t* src, std::size_t src_words,
                         std::size_t first, std::size_t n,
                         std::uint64_t* out) noexcept {
  if (n == 0) return;
  extract_tail(src, src_words, first / kWordBits, first % kWordBits, 0, n, out);
}

}  // namespace scalar

// ---- dispatched entry points ------------------------------------------------
// Identical results on every tier; the size gate keeps sub-512-bit rows on
// the inline scalar forms (see simd::kDispatchMinWords).

inline std::size_t popcount(const std::uint64_t* w, std::size_t words) noexcept {
  if (words < simd::kDispatchMinWords) return scalar::popcount(w, words);
  return simd::active().popcount(w, words);
}

inline std::size_t hamming(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) noexcept {
  if (words < simd::kDispatchMinWords) return scalar::hamming(a, b, words);
  return simd::active().hamming(a, b, words);
}

/// True iff hamming(a, b) > threshold, early-exiting block by block (see the
/// scalar form for the semantics; the SIMD tiers check per vector block).
inline bool hamming_exceeds(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words, std::size_t threshold) noexcept {
  if (words < simd::kDispatchMinWords)
    return scalar::hamming_exceeds(a, b, words, threshold);
  return simd::active().hamming_exceeds(a, b, words, threshold);
}

/// dst[i] ^= src[i] over `words` words.
inline void xor_into(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words) noexcept {
  if (words < simd::kDispatchMinWords) return scalar::xor_into(dst, src, words);
  simd::active().xor_into(dst, src, words);
}

/// Copies bits [first, first + n) of a packed source row into `out`; see
/// scalar::extract_bits for the exact contract (padding zero, bounded reads).
inline void extract_bits(const std::uint64_t* src, std::size_t src_words,
                         std::size_t first, std::size_t n,
                         std::uint64_t* out) noexcept {
  if (word_count(n) < simd::kDispatchMinWords)
    return scalar::extract_bits(src, src_words, first, n, out);
  simd::active().extract_bits(src, src_words, first, n, out);
}

/// Appends the positions where a and b differ (ascending) to `out`. The
/// caller clears `out` if it wants only this pair's positions — keeping the
/// clear outside lets tournament loops reuse one buffer across pairs.
inline void diff_positions_into(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::vector<std::size_t>& out) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x = a[w] ^ b[w];
    while (x != 0) {
      const int bit = std::countr_zero(x);
      out.push_back(w * kWordBits + static_cast<std::size_t>(bit));
      x &= x - 1;
    }
  }
}

/// Stable fnv-style content hash; must produce identical values for identical
/// bit content whether the bits live in a BitVector or a BitMatrix row (the
/// deterministic Select variant keys probe streams off this).
inline std::uint64_t content_hash(const std::uint64_t* w, std::size_t bits) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ bits;
  const std::size_t words = word_count(bits);
  for (std::size_t i = 0; i < words; ++i) {
    h ^= w[i];
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace colscore::bitkernel
