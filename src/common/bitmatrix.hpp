// Contiguous row-major bit matrix for families of preference vectors.
//
// The protocol's hot phases (neighbor graph, clustering, RSelect tournaments)
// sweep Hamming distances over *families* of binary vectors. Storing a family
// as std::vector<BitVector> costs one heap allocation per row and scatters
// rows across the heap; BitMatrix packs all rows into a single 64-byte-aligned
// allocation so tiled pair sweeps stream rows linearly through cache.
//
// Layout invariants (relied on by callers — see ROADMAP "Performance"):
//   * One allocation; row r starts at words() + r * word_stride().
//   * word_stride() is a multiple of 8 words (64 bytes), so every row starts
//     on its own cache line: distinct rows never share a word, which makes
//     per-row parallel writes race-free, and never share a cache line, which
//     avoids false sharing.
//   * Padding bits past cols() in a row's last used word are zero, and the
//     stride-padding words between rows are zero — row views hash/compare
//     identically to an equal BitVector.
//
// Rows are exposed as BitRow/ConstBitRow views (see bitvector.hpp), the types
// that define every word-parallel kernel; BitVector is a BitRow over its own
// words, so code written against the views runs unchanged over BitVectors and
// matrix rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bitvector.hpp"

namespace colscore {

class BitMatrix {
 public:
  BitMatrix() = default;
  /// rows x cols matrix, every bit set to `value`.
  BitMatrix(std::size_t rows, std::size_t cols, bool value = false);

  BitMatrix(const BitMatrix& other);
  BitMatrix& operator=(const BitMatrix& other);
  BitMatrix(BitMatrix&& other) noexcept;
  BitMatrix& operator=(BitMatrix&& other) noexcept;

  /// Reshapes to rows x cols with every bit zero, reusing the existing
  /// allocation when it is large enough (workspace pooling across runs).
  /// All layout invariants above hold afterwards.
  void reset(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }
  /// Words from the start of one row to the start of the next (multiple of 8).
  std::size_t word_stride() const noexcept { return stride_; }

  BitRow row(std::size_t r) noexcept {
    return BitRow(words_.get() + r * stride_, cols_);
  }
  ConstBitRow row(std::size_t r) const noexcept {
    return ConstBitRow(words_.get() + r * stride_, cols_);
  }

  bool get(std::size_t r, std::size_t c) const noexcept { return row(r).get(c); }
  void set(std::size_t r, std::size_t c, bool value) noexcept { row(r).set(c, value); }

  void fill(bool value) noexcept;

  /// Read views of every row, for APIs taking std::span<const ConstBitRow>.
  std::vector<ConstBitRow> row_views() const;

  const std::uint64_t* words() const noexcept { return words_.get(); }

 private:
  struct FreeDeleter {
    void operator()(std::uint64_t* p) const noexcept { std::free(p); }
  };

  std::size_t total_words() const noexcept { return rows_ * stride_; }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t capacity_words_ = 0;  // allocation size; >= total_words()
  std::unique_ptr<std::uint64_t[], FreeDeleter> words_;
};

bool operator==(const BitMatrix& a, const BitMatrix& b) noexcept;

}  // namespace colscore
