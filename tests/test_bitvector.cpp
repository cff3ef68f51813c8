#include "src/common/bitvector.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <numeric>
#include <optional>
#include <type_traits>
#include <vector>

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

TEST(BitVector, GatherObjectIds) {
  struct Case {
    std::size_t size;
    std::uint64_t seed;
    std::vector<ObjectId> ids;
  };
  for (const Case& c : {Case{100, 9, {0, 50, 99}},
                        Case{300, 7, {5, 64, 128, 200, 299}}}) {
    Rng rng(c.seed);
    const BitVector v = random_bitvector(c.size, rng);
    const BitVector g = v.gather(std::span<const ObjectId>(c.ids));
    ASSERT_EQ(g.size(), c.ids.size());
    for (std::size_t i = 0; i < c.ids.size(); ++i)
      EXPECT_EQ(g.get(i), v.get(c.ids[i])) << "size=" << c.size << " i=" << i;
  }
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

// ---- Value semantics ---------------------------------------------------------
// BitVector is a BitRow over its own words: inline up to 192 bits, on the heap
// above. Copies and moves must re-point the view at the destination's storage.

static_assert(std::is_convertible_v<BitVector&, BitRow>);
static_assert(!std::is_constructible_v<BitRow, BitVector&&>,
              "a mutable view must not bind to a temporary BitVector");
static_assert(!std::is_constructible_v<BitRow, const BitVector&>,
              "a mutable view must not bind to a const BitVector");
static_assert(!std::is_constructible_v<BitRow, const BitVector&&>);
static_assert(std::is_convertible_v<const BitVector&, ConstBitRow>);
static_assert(std::is_nothrow_move_constructible_v<BitVector>);
static_assert(std::is_nothrow_move_assignable_v<BitVector>);

// Sizes on both sides of the inline/heap boundary (192 bits = 3 words).
constexpr std::size_t kBoundarySizes[] = {0, 100, 192, 193, 300};

BitVector pattern(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  return random_bitvector(size, rng);
}

TEST(BitVector, CopyConstructDoesNotAlias) {
  for (const std::size_t size : kBoundarySizes) {
    const BitVector src = pattern(size, size + 1);
    BitVector copy(src);
    EXPECT_EQ(copy, src) << "size=" << size;
    EXPECT_EQ(copy.content_hash(), src.content_hash()) << "size=" << size;
    if (size == 0) continue;
    EXPECT_NE(copy.words().data(), src.words().data()) << "size=" << size;
    copy.flip(size - 1);
    EXPECT_EQ(copy.hamming(src), 1u) << "size=" << size;
  }
}

TEST(BitVector, MoveConstructOutlivesSource) {
  for (const std::size_t size : kBoundarySizes) {
    const BitVector expected = pattern(size, size + 2);
    std::optional<BitVector> src(expected);
    BitVector moved(std::move(*src));
    EXPECT_TRUE(src->empty()) << "size=" << size;
    src.reset();  // the destination must not view the source's inline words
    EXPECT_EQ(moved, expected) << "size=" << size;
    if (size != 0) moved.flip(0);
    EXPECT_EQ(moved.hamming(expected), size == 0 ? 0u : 1u) << "size=" << size;
  }
}

TEST(BitVector, CopyAssignResizesBothWays) {
  for (const std::size_t from : kBoundarySizes) {
    for (const std::size_t to : kBoundarySizes) {
      const BitVector src = pattern(to, to + 3);
      BitVector dst = pattern(from, from + 4);
      dst = src;
      EXPECT_EQ(dst, src) << from << " -> " << to;
      if (to == 0) continue;
      EXPECT_NE(dst.words().data(), src.words().data()) << from << " -> " << to;
      dst.flip(0);
      EXPECT_EQ(dst.hamming(src), 1u) << from << " -> " << to;
    }
  }
}

TEST(BitVector, MoveAssignResizesBothWays) {
  for (const std::size_t from : kBoundarySizes) {
    for (const std::size_t to : kBoundarySizes) {
      const BitVector expected = pattern(to, to + 5);
      BitVector dst = pattern(from, from + 6);
      {
        BitVector src = expected;
        dst = std::move(src);
        EXPECT_TRUE(src.empty()) << from << " -> " << to;
      }
      EXPECT_EQ(dst, expected) << from << " -> " << to;
    }
  }
}

TEST(BitVector, AssignChainShrinksAndRegrows) {
  const BitVector big = pattern(300, 21);
  const BitVector small = pattern(10, 22);
  BitVector v = big;
  v = small;
  EXPECT_EQ(v, small);
  v = big;
  EXPECT_EQ(v, big);
  v = BitVector(small);
  EXPECT_EQ(v, small);
  v = BitVector(big);
  EXPECT_EQ(v, big);
}

TEST(BitVector, SelfAssignmentKeepsContents) {
  for (const std::size_t size : kBoundarySizes) {
    const BitVector expected = pattern(size, size + 7);
    BitVector v = expected;
    BitVector& alias = v;
    v = alias;
    EXPECT_EQ(v, expected) << "size=" << size;
    v = std::move(alias);
    EXPECT_EQ(v, expected) << "size=" << size;
  }
}

TEST(BitVector, MovedFromVectorIsReusable) {
  for (const std::size_t size : kBoundarySizes) {
    const BitVector expected = pattern(size, size + 8);
    BitVector src = expected;
    const BitVector taken = std::move(src);
    ASSERT_TRUE(src.empty());
    EXPECT_EQ(src.popcount(), 0u);
    src = pattern(193, 9);
    src.fill(true);
    EXPECT_EQ(src.popcount(), 193u);
    EXPECT_EQ(taken, expected) << "size=" << size;
    src = BitVector(size);
    EXPECT_EQ(src.size(), size);
    EXPECT_EQ(src.popcount(), 0u);
  }
}

TEST(BitVector, ReallocatingContainerKeepsContents) {
  std::vector<BitVector> vs;
  std::vector<BitVector> expected;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t size = kBoundarySizes[i % std::size(kBoundarySizes)];
    expected.push_back(pattern(size, i));
    vs.push_back(pattern(size, i));  // push_back moves on every regrowth
  }
  for (std::size_t i = 0; i < vs.size(); ++i) EXPECT_EQ(vs[i], expected[i]) << i;
}

TEST(BitVector, BitRowViewWritesThrough) {
  for (const std::size_t size : {100u, 300u}) {
    BitVector v(size);
    BitRow row = v;
    EXPECT_EQ(row.words().data(), v.words().data());
    row.set(size - 1, true);
    EXPECT_TRUE(v.get(size - 1));
    const BitVector other = pattern(size, 31);
    row = other;  // proxy assignment: writes the bits, keeps the binding
    EXPECT_EQ(v, other);
    EXPECT_EQ(row.words().data(), v.words().data());
    auto clear = [](BitRow r) { r.fill(false); };
    clear(v);
    EXPECT_EQ(v.popcount(), 0u);
  }
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
