#include "src/common/bitmatrix.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace colscore {
namespace {

TEST(BitMatrix, GetSetRoundTrip) {
  BitMatrix m(3, 130);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 130u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 130; ++c) EXPECT_FALSE(m.get(r, c));
  m.set(1, 0, true);
  m.set(1, 64, true);
  m.set(2, 129, true);
  EXPECT_TRUE(m.get(1, 0));
  EXPECT_TRUE(m.get(1, 64));
  EXPECT_TRUE(m.get(2, 129));
  EXPECT_FALSE(m.get(0, 0));
  EXPECT_FALSE(m.get(1, 1));
  m.set(1, 64, false);
  EXPECT_FALSE(m.get(1, 64));
}

TEST(BitMatrix, RowsAreWordDisjoint) {
  // Layout invariant: the stride is a whole number of cache lines, so writes
  // to one row can never touch another row's words (parallel-write safety).
  BitMatrix m(4, 65);
  EXPECT_EQ(m.word_stride() % 8, 0u);
  m.row(1).fill(true);
  EXPECT_EQ(m.row(0).popcount(), 0u);
  EXPECT_EQ(m.row(1).popcount(), 65u);
  EXPECT_EQ(m.row(2).popcount(), 0u);
}

TEST(BitMatrix, RowViewsAliasTheMatrix) {
  BitMatrix m(2, 100);
  BitRow row = m.row(0);
  row.set(7, true);
  EXPECT_TRUE(m.get(0, 7));  // write through the view is visible
  m.set(0, 8, true);
  EXPECT_TRUE(row.get(8));  // and vice versa
  ConstBitRow cview = m.row(0);
  EXPECT_EQ(cview.popcount(), 2u);
}

TEST(BitMatrix, RowAssignmentCopiesBits) {
  Rng rng(5);
  const BitVector v = random_bitvector(200, rng);
  BitMatrix m(3, 200);
  m.row(2) = v;
  EXPECT_TRUE(m.row(2) == v);
  EXPECT_EQ(m.row(2).popcount(), v.popcount());
  // Proxy semantics: assigning a row to a row copies content.
  m.row(0) = m.row(2);
  EXPECT_TRUE(m.row(0) == v);
  m.set(0, 0, !v.get(0));
  EXPECT_TRUE(m.row(2) == v);  // source unaffected
}

TEST(BitMatrix, HammingMatchesBitVectorReference) {
  Rng rng(17);
  const std::size_t dim = 300;
  std::vector<BitVector> ref;
  BitMatrix m(8, dim);
  for (std::size_t r = 0; r < 8; ++r) {
    ref.push_back(random_bitvector(dim, rng));
    m.row(r) = ref.back();
  }
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t expect = ref[a].hamming(ref[b]);
      EXPECT_EQ(m.row(a).hamming(m.row(b)), expect);
      EXPECT_EQ(m.row(a).hamming(ref[b]), expect);  // mixed view/vector
      // hamming_exceeds agrees with the exact distance on both sides of the
      // threshold.
      if (expect > 0) {
        EXPECT_TRUE(m.row(a).hamming_exceeds(m.row(b), expect - 1));
      }
      EXPECT_FALSE(m.row(a).hamming_exceeds(m.row(b), expect));
    }
  }
}

TEST(BitMatrix, DiffPositionsIntoMatchesReference) {
  Rng rng(23);
  const BitVector a = random_bitvector(500, rng);
  const BitVector b = random_bitvector(500, rng);
  BitMatrix m(2, 500);
  m.row(0) = a;
  m.row(1) = b;
  std::vector<std::size_t> out;
  out.push_back(999);  // _into appends; callers own the clear
  m.row(0).diff_positions_into(m.row(1), out);
  const auto expect = a.diff_positions(b);
  ASSERT_EQ(out.size(), expect.size() + 1);
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(out[i + 1], expect[i]);
}

TEST(BitMatrix, ContentHashMatchesEqualBitVector) {
  // The deterministic Select tournament keys probe streams off content_hash;
  // a row and an equal BitVector must hash identically.
  Rng rng(31);
  const BitVector v = random_bitvector(130, rng);
  BitMatrix m(1, 130);
  m.row(0) = v;
  EXPECT_EQ(m.row(0).content_hash(), v.content_hash());
  EXPECT_EQ(m.row(0).to_bitvector().content_hash(), v.content_hash());
}

TEST(BitMatrix, CopyAndMoveAreDeep) {
  Rng rng(41);
  BitMatrix m(4, 90);
  for (std::size_t r = 0; r < 4; ++r) m.row(r) = random_bitvector(90, rng);
  BitMatrix copy = m;
  EXPECT_TRUE(copy == m);
  copy.set(0, 0, !copy.get(0, 0));
  EXPECT_FALSE(copy == m);

  BitMatrix moved = std::move(copy);
  EXPECT_EQ(moved.rows(), 4u);
  EXPECT_FALSE(moved == m);
}

TEST(BitMatrix, FillAndAllOnesKeepPaddingClean) {
  BitMatrix m(2, 70);  // 6 bits of padding in the last used word
  m.fill(true);
  EXPECT_EQ(m.row(0).popcount(), 70u);
  BitMatrix ones(2, 70, true);
  EXPECT_TRUE(m == ones);
  // Padding must stay zero so hashes/comparisons match BitVectors.
  EXPECT_EQ(m.row(0).content_hash(), BitVector(70, true).content_hash());
  m.fill(false);
  EXPECT_EQ(m.row(0).popcount(), 0u);
}

TEST(BitMatrix, ViewsOverBitVectorsInteroperate) {
  Rng rng(51);
  BitVector v = random_bitvector(128, rng);
  ConstBitRow view = v;  // zero-copy view of a plain BitVector
  EXPECT_EQ(view.popcount(), v.popcount());
  EXPECT_EQ(view.hamming(v), 0u);
  BitVector owned = view;  // and back to an owning vector
  EXPECT_TRUE(owned == v);
  BitRow mview = v;
  mview.flip(3);
  EXPECT_EQ(v.get(3), mview.get(3));  // mutable view writes through
}

TEST(BitMatrix, EmptyMatrix) {
  BitMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  BitMatrix zero_cols(3, 0);
  EXPECT_EQ(zero_cols.rows(), 3u);
  EXPECT_EQ(zero_cols.row(0).size(), 0u);
  EXPECT_EQ(zero_cols.row(0).popcount(), 0u);
}

}  // namespace
}  // namespace colscore
