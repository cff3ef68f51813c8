// Pinned concurrency regressions for the shared-state hot spots: exact probe
// accounting under concurrent charging, and bulletin-board completeness under
// concurrent posting. The whole binary runs under the tsan CI leg
// (COLSCORE_SAN=thread), so a data race in ThreadPool, ProbeOracle::charge,
// or the board shards fails CI even when the counts happen to come out right.
// Suite-level byte-identity of parallel vs serial grids is pinned separately
// in test_suite.cpp.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/board/bulletin_board.hpp"
#include "src/board/probe_oracle.hpp"
#include "src/common/rng.hpp"
#include "src/common/exec_policy.hpp"
#include "src/common/thread_pool.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {
namespace {

PreferenceMatrix random_matrix(std::size_t players, std::size_t objects,
                               std::uint64_t seed) {
  PreferenceMatrix m(players, objects);
  Rng rng(seed);
  for (PlayerId p = 0; p < players; ++p) m.row(p).randomize(rng);
  return m;
}

TEST(Concurrency, MixedChargePathsStayExactUnderContention) {
  constexpr std::size_t kPlayers = 32;
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kIndices = 2048;  // 64 indices hit each player
  const PreferenceMatrix m = random_matrix(kPlayers, kObjects, 0xc0c0);
  ProbeOracle oracle(m);
  std::atomic<std::uint64_t> mismatches{0};

  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  // Per index: 1 (probe) + 64 (probe_row) + 5 (probe_gather) = 70 charges,
  // with every player's counter shared by indices on different workers.
  policy.par_for(0, kIndices, [&](std::size_t i) {
    const auto p = static_cast<PlayerId>(i % kPlayers);
    const auto o = static_cast<ObjectId>(i % kObjects);
    if (oracle.probe(p, o) != m.preference(p, o)) mismatches.fetch_add(1);

    const auto first = static_cast<ObjectId>((i % 3) * 64);
    BitVector row(64);
    oracle.probe_row(p, first, 64, row);
    for (std::size_t b = 0; b < 64; ++b)
      if (row.get(b) != m.preference(p, static_cast<ObjectId>(first + b)))
        mismatches.fetch_add(1);

    const std::array<ObjectId, 5> slate = {
        static_cast<ObjectId>((i * 7) % kObjects),
        static_cast<ObjectId>((i * 11) % kObjects), ObjectId{3}, o,
        static_cast<ObjectId>((i * 13) % kObjects)};
    BitVector bits(slate.size());
    oracle.probe_gather(p, slate, bits);
    for (std::size_t b = 0; b < slate.size(); ++b)
      if (bits.get(b) != m.preference(p, slate[b])) mismatches.fetch_add(1);
  });

  EXPECT_EQ(mismatches.load(), 0u);
  constexpr std::uint64_t kPerIndex = 1 + 64 + 5;
  for (PlayerId p = 0; p < kPlayers; ++p)
    EXPECT_EQ(oracle.probes_by(p), (kIndices / kPlayers) * kPerIndex);
  EXPECT_EQ(oracle.total_probes(), kIndices * kPerIndex);
  EXPECT_EQ(oracle.max_probes(), (kIndices / kPlayers) * kPerIndex);
}

TEST(Concurrency, BoardReportsSurviveConcurrentPosting) {
  constexpr std::size_t kPlayers = 32;
  constexpr std::size_t kObjects = 16;  // heavy per-object contention
  constexpr std::size_t kPosts = 1024;
  constexpr std::uint64_t kTag = 0x7a6;
  BulletinBoard board(BoardRetention::kFull);

  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  // author cycles fastest, object per block of kPlayers: every
  // (author, object) pair is posted exactly kPosts / (kPlayers * kObjects)
  // times, and parity(i) == parity(author).
  policy.par_for(0, kPosts, [&](std::size_t i) {
    board.post_report(kTag, static_cast<PlayerId>(i % kPlayers),
                      static_cast<ObjectId>((i / kPlayers) % kObjects),
                      (i & 1) != 0);
  });

  EXPECT_EQ(board.report_count(), kPosts);
  const auto all = board.all_reports(kTag);
  ASSERT_EQ(all.size(), kPosts);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LE(all[i - 1].object, all[i].object);  // ascending-object contract

  // Interleaving across workers is schedule-dependent, but the content per
  // object is not: each object must hold exactly its posters' reports.
  for (ObjectId o = 0; o < kObjects; ++o) {
    const auto bucket = board.reports_for(kTag, o);
    ASSERT_EQ(bucket.size(), kPosts / kObjects) << "object " << o;
    std::vector<int> seen(kPlayers, 0);
    for (const ProbeReport& r : bucket) {
      EXPECT_EQ(r.object, o);
      EXPECT_EQ(r.value, (r.author & 1) != 0);  // value = parity of index i,
      seen[r.author] += 1;                      // and i % kPlayers = author
    }
    for (std::size_t p = 0; p < kPlayers; ++p)
      EXPECT_EQ(seen[p], 2) << "player " << p;  // 1024 / (32*16) posts each
  }
}

TEST(Concurrency, VectorSupportCountsSurviveConcurrentPosting) {
  constexpr std::size_t kPlayers = 64;
  constexpr std::uint64_t kTag = 0x5ec;
  BitVector majority(128), minority(128);
  Rng rng(0xbead);
  majority.randomize(rng);
  minority.randomize(rng);
  ASSERT_NE(majority, minority);

  BulletinBoard board(BoardRetention::kFull);
  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  policy.par_for(0, kPlayers, [&](std::size_t p) {
    board.post_vector(kTag, static_cast<PlayerId>(p),
                      (p % 4 == 0) ? minority : majority);
  });

  EXPECT_EQ(board.vector_count(), kPlayers);
  const auto posts = board.vectors(kTag);
  ASSERT_EQ(posts.size(), kPlayers);
  std::vector<int> seen(kPlayers, 0);
  for (const VectorPost& post : posts) {
    seen[post.author] += 1;
    EXPECT_EQ(post.vector, (post.author % 4 == 0) ? minority : majority);
  }
  for (std::size_t p = 0; p < kPlayers; ++p) EXPECT_EQ(seen[p], 1);

  // Distinct support counts make the ranking schedule-independent even
  // though first-appearance tie-breaks would not be.
  const auto ranked = board.take_support(kTag);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].vector, majority);
  EXPECT_EQ(ranked[0].support, kPlayers - kPlayers / 4);
  EXPECT_EQ(ranked[1].vector, minority);
  EXPECT_EQ(ranked[1].support, kPlayers / 4);
}

}  // namespace
}  // namespace colscore
