// Cross-checks every SIMD kernel tier against the scalar reference.
//
// The dispatcher's contract is that the tier only moves time, never output:
// for any input, every supported tier's popcount / hamming / hamming_exceeds
// / xor_into / extract_bits returns exactly what bitkernel::scalar returns.
// These tests exercise each tier's table directly (kernels_for) on
// randomized word counts spanning sub-vector, bulk (Harley-Seal blocks),
// and tail-only shapes, plus the extract_bits boundary zoo (every bit
// offset, missing-last-source-word, all-padding outputs), and the
// set_tier/env-cap plumbing the CI tier legs rely on.
//
// The CI matrix runs this binary once per forced tier (COLSCORE_SIMD=scalar
// and =avx2 where the runner supports it); on an AVX-512 box an unforced run
// covers all three tiers in one pass via the supported-tier loop.

#include "src/common/simd.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/bitkernels.hpp"
#include "src/common/rng.hpp"

namespace colscore {
namespace {

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512})
    if (simd::tier_supported(t)) tiers.push_back(t);
  return tiers;
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> w(n);
  for (auto& x : w) x = rng();
  return w;
}

/// Word counts that hit every loop shape: empty, tail-only, exactly one
/// vector at each width, the Harley-Seal 32-word block boundary, and bulky
/// sizes with every tail remainder.
const std::size_t kWordCounts[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  12,
                                   15, 16, 17, 24, 31, 32, 33, 37, 63, 64,
                                   65, 96, 100, 128, 129, 161};

TEST(Simd, PopcountMatchesScalarOnEveryTier) {
  Rng rng(11);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> w = random_words(words, rng);
    const std::size_t want = bitkernel::scalar::popcount(w.data(), words);
    for (const simd::Tier t : supported_tiers())
      EXPECT_EQ(simd::kernels_for(t).popcount(w.data(), words), want)
          << simd::tier_name(t) << " words=" << words;
  }
}

TEST(Simd, HammingMatchesScalarOnEveryTier) {
  Rng rng(12);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    std::vector<std::uint64_t> b = a;
    // Half the runs compare near-identical vectors (sparse XOR), half
    // independent ones — both matter for the carry-save accumulation.
    if (words % 2 == 0)
      for (std::size_t i = 0; i < words; i += 3) b[i] ^= 1ULL << (i % 64);
    else
      b = random_words(words, rng);
    const std::size_t want = bitkernel::scalar::hamming(a.data(), b.data(), words);
    for (const simd::Tier t : supported_tiers())
      EXPECT_EQ(simd::kernels_for(t).hamming(a.data(), b.data(), words), want)
          << simd::tier_name(t) << " words=" << words;
  }
}

TEST(Simd, HammingExceedsAgreesAtEveryThreshold) {
  // The early exit must never change the boolean: sweep thresholds around
  // the true distance, including the exact boundary (d > t is strict).
  Rng rng(13);
  for (const std::size_t words : {1ul, 7ul, 8ul, 16ul, 33ul, 64ul, 100ul}) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    const std::vector<std::uint64_t> b = random_words(words, rng);
    const std::size_t d = bitkernel::scalar::hamming(a.data(), b.data(), words);
    for (const std::size_t t :
         {std::size_t{0}, d > 0 ? d - 1 : 0, d, d + 1, d + 100}) {
      const bool want = d > t;
      for (const simd::Tier tier : supported_tiers())
        EXPECT_EQ(
            simd::kernels_for(tier).hamming_exceeds(a.data(), b.data(), words, t),
            want)
            << simd::tier_name(tier) << " words=" << words << " thr=" << t;
    }
  }
}

TEST(Simd, HammingExceedsEarlyExitDoesNotMiscount) {
  // All the difference concentrated in the first vector block: every tier
  // exits early there, and the answer must still match a distance that only
  // just crosses (or only just misses) the threshold.
  std::vector<std::uint64_t> a(40, 0), b(40, 0);
  b[0] = ~0ULL;  // distance exactly 64
  for (const simd::Tier t : supported_tiers()) {
    const simd::Kernels& k = simd::kernels_for(t);
    EXPECT_TRUE(k.hamming_exceeds(a.data(), b.data(), 40, 63));
    EXPECT_FALSE(k.hamming_exceeds(a.data(), b.data(), 40, 64));
  }
}

TEST(Simd, XorIntoMatchesScalarOnEveryTier) {
  Rng rng(14);
  for (const std::size_t words : kWordCounts) {
    const std::vector<std::uint64_t> base = random_words(words, rng);
    const std::vector<std::uint64_t> src = random_words(words, rng);
    std::vector<std::uint64_t> want = base;
    bitkernel::scalar::xor_into(want.data(), src.data(), words);
    for (const simd::Tier t : supported_tiers()) {
      std::vector<std::uint64_t> got = base;
      simd::kernels_for(t).xor_into(got.data(), src.data(), words);
      EXPECT_EQ(got, want) << simd::tier_name(t) << " words=" << words;
    }
  }
}

TEST(Simd, ExtractBitsMatchesScalarEverywhere) {
  // Every bit offset x a spread of lengths, against sources barely long
  // enough — this covers the missing-last-source-word path (the vector loops
  // must stop before reading past src and hand off to the shared tail) and
  // sub-word / all-padding outputs.
  Rng rng(15);
  const std::size_t src_bits = 64 * 24;
  const std::vector<std::uint64_t> src = random_words(24, rng);
  for (std::size_t off = 0; off < 64; ++off) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{5}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{500}, std::size_t{512},
          src_bits - off}) {
      if (off + n > src_bits) continue;
      const std::size_t out_words = bitkernel::word_count(n);
      std::vector<std::uint64_t> want(out_words, ~0ULL);
      bitkernel::scalar::extract_bits(src.data(), src.size(), off, n, want.data());
      for (const simd::Tier t : supported_tiers()) {
        std::vector<std::uint64_t> got(out_words, ~0ULL);
        simd::kernels_for(t).extract_bits(src.data(), src.size(), off, n,
                                          got.data());
        EXPECT_EQ(got, want)
            << simd::tier_name(t) << " off=" << off << " n=" << n;
      }
      // Padding invariant: bits past n in the last word are zero.
      const std::size_t rem = n % 64;
      if (rem != 0) {
        EXPECT_EQ(want[out_words - 1] & ~bitkernel::low_mask(rem), 0u);
      }
    }
  }
}

TEST(Simd, ExtractBitsZeroLengthWritesNothing) {
  const std::vector<std::uint64_t> src(4, ~0ULL);
  for (const simd::Tier t : supported_tiers()) {
    std::uint64_t sentinel = 0xdeadbeefULL;
    simd::kernels_for(t).extract_bits(src.data(), src.size(), 17, 0, &sentinel);
    EXPECT_EQ(sentinel, 0xdeadbeefULL) << simd::tier_name(t);
  }
}

TEST(Simd, SetTierSwitchesTheDispatchedEntryPoints) {
  Rng rng(16);
  // 64 words: above kDispatchMinWords, so dispatch engages. The count is
  // read back from the vector: a literal lets GCC unroll the scalar tail
  // and warn about iterations it cannot reach (-Waggressive-loop-optimizations).
  const std::vector<std::uint64_t> a = random_words(64, rng);
  const std::vector<std::uint64_t> b = random_words(64, rng);
  const std::size_t words = a.size();
  const std::size_t want = bitkernel::scalar::hamming(a.data(), b.data(), words);
  const simd::Tier before = simd::active_tier();
  for (const simd::Tier t : supported_tiers()) {
    ASSERT_TRUE(simd::set_tier(t));
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_EQ(bitkernel::hamming(a.data(), b.data(), words), want);
    EXPECT_EQ(bitkernel::popcount(a.data(), words),
              bitkernel::scalar::popcount(a.data(), words));
  }
  ASSERT_TRUE(simd::set_tier(before));
}

TEST(Simd, UnsupportedTierIsRejectedAndFallsBackToScalar) {
  // Under COLSCORE_SIMD=scalar (the CI leg) the AVX tiers must report
  // unsupported, set_tier must refuse them, and kernels_for must hand back
  // the scalar table instead of one that would fault.
  for (const simd::Tier t : {simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::tier_supported(t)) continue;
    EXPECT_FALSE(simd::set_tier(t));
    EXPECT_EQ(&simd::kernels_for(t), &simd::kernels_for(simd::Tier::kScalar));
  }
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
}

TEST(Simd, DetectedTierHonorsEnvCap) {
  // The test can't re-exec itself, but it can check consistency: whatever
  // COLSCORE_SIMD says, detected_tier() must not exceed it.
  const char* env = std::getenv("COLSCORE_SIMD");
  if (env == nullptr) GTEST_SKIP() << "COLSCORE_SIMD not set";
  const std::string cap(env);
  if (cap == "scalar") {
    EXPECT_EQ(simd::detected_tier(), simd::Tier::kScalar);
  } else if (cap == "avx2") {
    EXPECT_LE(static_cast<int>(simd::detected_tier()),
              static_cast<int>(simd::Tier::kAvx2));
  }
}

TEST(Simd, DispatchedEntryPointsMatchScalarBelowAndAboveTheGate) {
  // The size gate (kDispatchMinWords) must be output-invisible.
  Rng rng(17);
  for (const std::size_t words :
       {std::size_t{1}, simd::kDispatchMinWords - 1, simd::kDispatchMinWords,
        simd::kDispatchMinWords + 1, std::size_t{64}}) {
    const std::vector<std::uint64_t> a = random_words(words, rng);
    const std::vector<std::uint64_t> b = random_words(words, rng);
    EXPECT_EQ(bitkernel::hamming(a.data(), b.data(), words),
              bitkernel::scalar::hamming(a.data(), b.data(), words));
    EXPECT_EQ(bitkernel::popcount(a.data(), words),
              bitkernel::scalar::popcount(a.data(), words));
  }
}

}  // namespace
}  // namespace colscore
