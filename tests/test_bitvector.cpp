#include "src/common/bitvector.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace colscore {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ConstructAllZero) {
  BitVector v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, ConstructAllOne) {
  BitVector v(100, true);
  EXPECT_EQ(v.popcount(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_TRUE(v.get(i));
}

TEST(BitVector, PaddingBitsDoNotLeak) {
  // Sizes straddling word boundaries must not count padding in popcount.
  for (std::size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    BitVector v(size, true);
    EXPECT_EQ(v.popcount(), size) << "size=" << size;
    BitVector inv = ~BitVector(size);
    EXPECT_EQ(inv.popcount(), size) << "size=" << size;
  }
}

TEST(BitVector, SetGetFlip) {
  BitVector v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  v.set(0, false);
  EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVector, HammingBasics) {
  BitVector a(200), b(200);
  EXPECT_EQ(a.hamming(b), 0u);
  b.set(3, true);
  b.set(100, true);
  b.set(199, true);
  EXPECT_EQ(a.hamming(b), 3u);
  EXPECT_EQ(b.hamming(a), 3u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVector, DiffPositions) {
  BitVector a(150), b(150);
  b.set(0, true);
  b.set(77, true);
  b.set(149, true);
  const auto diff = a.diff_positions(b);
  ASSERT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff[0], 0u);
  EXPECT_EQ(diff[1], 77u);
  EXPECT_EQ(diff[2], 149u);
}

TEST(BitVector, GatherPositions) {
  Rng rng(7);
  BitVector v = random_bitvector(300, rng);
  std::vector<std::size_t> positions = {5, 64, 128, 200, 299};
  const BitVector g = v.gather(std::span<const std::size_t>(positions));
  ASSERT_EQ(g.size(), positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    EXPECT_EQ(g.get(i), v.get(positions[i]));
}

TEST(BitVector, GatherObjectIds) {
  Rng rng(9);
  BitVector v = random_bitvector(100, rng);
  std::vector<ObjectId> ids = {0, 50, 99};
  const BitVector g = v.gather(std::span<const ObjectId>(ids));
  EXPECT_EQ(g.get(0), v.get(0));
  EXPECT_EQ(g.get(1), v.get(50));
  EXPECT_EQ(g.get(2), v.get(99));
}

TEST(BitVector, XorAndOrNot) {
  BitVector a(70), b(70);
  a.set(1, true);
  a.set(65, true);
  b.set(1, true);
  b.set(2, true);
  BitVector x = a;
  x ^= b;
  EXPECT_FALSE(x.get(1));
  EXPECT_TRUE(x.get(2));
  EXPECT_TRUE(x.get(65));

  BitVector n = ~a;
  EXPECT_FALSE(n.get(1));
  EXPECT_TRUE(n.get(0));
  EXPECT_EQ(n.popcount(), 68u);

  BitVector o = a;
  o |= b;
  EXPECT_EQ(o.popcount(), 3u);
  BitVector d = a;
  d &= b;
  EXPECT_EQ(d.popcount(), 1u);
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector a(64), b(65);
  EXPECT_NE(a, b);
  BitVector c(64), d(64);
  EXPECT_EQ(c, d);
  d.set(63, true);
  EXPECT_NE(c, d);
}

TEST(BitVector, FillAndRandomizeDensity) {
  Rng rng(42);
  BitVector v(10000);
  v.randomize(rng, 0.1);
  const double density = static_cast<double>(v.popcount()) / 10000.0;
  EXPECT_NEAR(density, 0.1, 0.03);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 10000u);
  v.fill(false);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, RandomizeHalfDensity) {
  Rng rng(43);
  BitVector v(10000);
  v.randomize(rng);
  const double density = static_cast<double>(v.popcount()) / 10000.0;
  EXPECT_NEAR(density, 0.5, 0.03);
}

TEST(BitVector, FlipRandomFlipsExactCount) {
  Rng rng(11);
  BitVector v(500);
  v.flip_random(rng, 37);
  EXPECT_EQ(v.popcount(), 37u);
  // Flipping again from a set state changes exactly that many positions.
  BitVector w = v;
  w.flip_random(rng, 20);
  EXPECT_EQ(v.hamming(w), 20u);
}

TEST(BitVector, FlipRandomFullVector) {
  Rng rng(12);
  BitVector v(64);
  v.flip_random(rng, 64);
  EXPECT_EQ(v.popcount(), 64u);
}

TEST(BitVector, ContentHashDistinguishesContent) {
  Rng rng(13);
  BitVector a = random_bitvector(256, rng);
  BitVector b = a;
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.flip(100);
  EXPECT_NE(a.content_hash(), b.content_hash());
}

TEST(BitVector, ToString) {
  BitVector v(5);
  v.set(1, true);
  v.set(4, true);
  EXPECT_EQ(v.to_string(), "01001");
}

TEST(BitVector, HammingMatchesNaive) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    BitVector a = random_bitvector(313, rng);
    BitVector b = random_bitvector(313, rng);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < 313; ++i)
      if (a.get(i) != b.get(i)) ++naive;
    EXPECT_EQ(a.hamming(b), naive);
  }
}

TEST(BitVector, DiffPositionsMatchesHamming) {
  Rng rng(101);
  BitVector a = random_bitvector(500, rng);
  BitVector b = random_bitvector(500, rng);
  EXPECT_EQ(a.diff_positions(b).size(), a.hamming(b));
}

class BitVectorSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorSizeSweep, TripleXorIdentity) {
  // a ^ b ^ b == a for any size.
  Rng rng(GetParam());
  BitVector a = random_bitvector(GetParam(), rng);
  BitVector b = random_bitvector(GetParam(), rng);
  BitVector x = a;
  x ^= b;
  x ^= b;
  EXPECT_EQ(x, a);
}

TEST_P(BitVectorSizeSweep, HammingViaXorPopcount) {
  Rng rng(GetParam() + 1);
  BitVector a = random_bitvector(GetParam(), rng);
  BitVector b = random_bitvector(GetParam(), rng);
  BitVector x = a;
  x ^= b;
  EXPECT_EQ(x.popcount(), a.hamming(b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorSizeSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 100, 127, 128, 129, 1000,
                                           4096));

}  // namespace
}  // namespace colscore
