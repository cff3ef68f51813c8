#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/board/bulletin_board.hpp"
#include "src/board/probe_oracle.hpp"
#include "src/board/shared_random.hpp"
#include "src/common/exec_policy.hpp"
#include "src/model/preference_matrix.hpp"

namespace colscore {
namespace {

PreferenceMatrix small_matrix() {
  PreferenceMatrix m(4, 6);
  m.set(0, 0, true);
  m.set(1, 1, true);
  m.set(2, 2, true);
  m.set(3, 3, true);
  return m;
}

TEST(ProbeOracle, ReturnsOwnTruthAndCharges) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  EXPECT_TRUE(oracle.probe(0, 0));
  EXPECT_FALSE(oracle.probe(0, 1));
  EXPECT_TRUE(oracle.probe(1, 1));
  EXPECT_EQ(oracle.probes_by(0), 2u);
  EXPECT_EQ(oracle.probes_by(1), 1u);
  EXPECT_EQ(oracle.probes_by(2), 0u);
  EXPECT_EQ(oracle.total_probes(), 3u);
  EXPECT_EQ(oracle.max_probes(), 2u);
}

TEST(ProbeOracle, AdversaryPeekIsFree) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  EXPECT_TRUE(oracle.adversary_peek(2, 2));
  EXPECT_EQ(oracle.total_probes(), 0u);
}

TEST(ProbeOracle, ResetCounts) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  oracle.probe(0, 0);
  oracle.reset_counts();
  EXPECT_EQ(oracle.total_probes(), 0u);
}

TEST(ProbeOracle, HardBudgetAborts) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m, ProbeOracle::BudgetMode::kHard, 2);
  oracle.probe(0, 0);
  oracle.probe(0, 1);
  EXPECT_DEATH(oracle.probe(0, 2), "budget");
}

TEST(ProbeOracle, ConcurrentProbesCountExactly) {
  const PreferenceMatrix m = small_matrix();
  ProbeOracle oracle(m);
  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  policy.par_for(0, 1000, [&](std::size_t) { oracle.probe(0, 0); });
  EXPECT_EQ(oracle.probes_by(0), 1000u);
}

TEST(BulletinBoard, ReportRoundTrip) {
  BulletinBoard board(BoardRetention::kFull);
  board.post_report(1, 10, 5, true);
  board.post_report(1, 11, 5, false);
  board.post_report(2, 12, 5, true);  // different channel

  const auto reports = board.reports_for(1, 5);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].author, 10u);
  EXPECT_TRUE(reports[0].value);
  EXPECT_EQ(reports[1].author, 11u);
  EXPECT_FALSE(reports[1].value);

  EXPECT_TRUE(board.reports_for(1, 6).empty());
  EXPECT_EQ(board.reports_for(2, 5).size(), 1u);
  EXPECT_EQ(board.report_count(), 3u);
}

TEST(BulletinBoard, AppendOnlyPreservesHonestRecords) {
  // A dishonest player posting to the same channel/object cannot alter the
  // honest entry — there is no mutation API, and records keep their author.
  BulletinBoard board(BoardRetention::kFull);
  board.post_report(7, /*author=*/1, /*object=*/3, true);
  board.post_report(7, /*author=*/666, /*object=*/3, false);
  const auto reports = board.reports_for(7, 3);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].author, 1u);
  EXPECT_TRUE(reports[0].value);  // unchanged
}

TEST(BulletinBoard, VectorChannel) {
  BulletinBoard board(BoardRetention::kFull);
  BitVector v(8);
  v.set(3, true);
  board.post_vector(42, 0, v);
  board.post_vector(42, 1, v);
  BitVector w(8);
  board.post_vector(42, 2, w);

  const auto posts = board.vectors(42);
  ASSERT_EQ(posts.size(), 3u);
  EXPECT_EQ(board.vector_count(), 3u);

  const auto by_support = board.take_support(42);
  ASSERT_EQ(by_support.size(), 2u);
  EXPECT_EQ(by_support[0].support, 2u);
  EXPECT_EQ(by_support[0].vector, v);
  EXPECT_EQ(by_support[1].support, 1u);
  EXPECT_EQ(by_support[1].vector, w);
}

// ---- packed vector channels ------------------------------------------------
// A channel stores its posts as an author column plus one word arena whose
// stride is fixed by the first post's width; these pin that the packing is
// invisible to readers.

TEST(BulletinBoard, PackedChannelKeepsPostingOrderAcrossWriters) {
  BulletinBoard board(BoardRetention::kFull);
  Rng rng(0x9ac4);
  std::vector<BitVector> posted;
  for (int i = 0; i < 6; ++i) posted.push_back(random_bitvector(70, rng));
  board.post_vector(5, 0, posted[0]);
  {
    auto writer = board.vector_channel(5);
    writer.post(1, posted[1]);
    writer.post(2, posted[2]);
  }
  board.post_vector(5, 3, posted[3]);
  {
    auto writer = board.vector_channel(5);
    writer.post(4, posted[4]);
  }
  board.post_vector(5, 5, posted[5]);

  const auto posts = board.vectors(5);
  ASSERT_EQ(posts.size(), posted.size());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    EXPECT_EQ(posts[i].author, i) << "post " << i;
    EXPECT_EQ(posts[i].vector, posted[i]) << "post " << i;
  }
  EXPECT_EQ(board.vector_count(), posted.size());
}

TEST(BulletinBoard, PackedChannelRoundTripsEveryWidth) {
  // 0/1/64 bits fit one (or no) word, 65 and 192 the inline BitVector form,
  // 193 and 2048 its heap form; each width gets its own channel.
  BulletinBoard board(BoardRetention::kFull);
  Rng rng(0x3d1);
  std::uint64_t expected_count = 0;
  for (const std::size_t width : {0u, 1u, 64u, 65u, 192u, 193u, 2048u}) {
    const std::uint64_t tag = 100 + width;
    std::vector<BitVector> posted;
    for (PlayerId p = 0; p < 4; ++p) posted.push_back(random_bitvector(width, rng));
    posted.push_back(posted[1]);  // a repeat, so support counting has work
    {
      auto writer = board.vector_channel(tag);
      for (PlayerId p = 0; p < 3; ++p) writer.post(p, posted[p]);
    }
    for (PlayerId p = 3; p < posted.size(); ++p) board.post_vector(tag, p, posted[p]);
    expected_count += posted.size();

    const auto posts = board.vectors(tag);
    ASSERT_EQ(posts.size(), posted.size()) << "width " << width;
    for (std::size_t i = 0; i < posts.size(); ++i) {
      EXPECT_EQ(posts[i].author, i) << "width " << width;
      ASSERT_EQ(posts[i].vector.size(), width);
      EXPECT_EQ(posts[i].vector.to_string(), posted[i].to_string())
          << "width " << width << " post " << i;
    }
    const auto ranked = board.take_support(tag);
    ASSERT_FALSE(ranked.empty());
    EXPECT_EQ(ranked.front().vector, posted[1]) << "width " << width;
    std::size_t support = 0;
    for (const auto& sv : ranked) {
      EXPECT_EQ(sv.vector.size(), width);
      support += sv.support;
    }
    EXPECT_EQ(support, posted.size());
  }
  EXPECT_EQ(board.vector_count(), expected_count);
}

TEST(BulletinBoard, SupportTieBreaksByFirstAppearance) {
  // Ties at two support levels, on both the flat dedup path (few distinct
  // vectors) and the hash-map path (more than its 48-entry flat limit).
  for (const std::size_t extra_singletons : {0u, 60u}) {
    BulletinBoard board;
    Rng rng(0x7e5 + extra_singletons);
    std::vector<BitVector> pool;
    for (std::size_t i = 0; i < 4 + extra_singletons; ++i)
      pool.push_back(random_bitvector(40, rng));
    // Posting order: c a b a c b d [singletons...] -> c, a, b twice; d once.
    const BitVector &a = pool[0], &b = pool[1], &c = pool[2], &d = pool[3];
    std::vector<BitVector> order{c, a, b, a, c, b, d};
    for (std::size_t i = 4; i < pool.size(); ++i) order.push_back(pool[i]);
    for (std::size_t i = 0; i < order.size(); ++i)
      board.post_vector(9, static_cast<PlayerId>(i), order[i]);

    const auto ranked = board.take_support(9);
    ASSERT_EQ(ranked.size(), pool.size());
    EXPECT_EQ(ranked[0].vector, c);
    EXPECT_EQ(ranked[1].vector, a);
    EXPECT_EQ(ranked[2].vector, b);
    EXPECT_EQ(ranked[3].vector, d);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(ranked[i].support, 2u);
    for (std::size_t i = 3; i < ranked.size(); ++i) {
      EXPECT_EQ(ranked[i].support, 1u);
      EXPECT_EQ(ranked[i].vector, pool[i]) << "rank " << i;
    }
    EXPECT_EQ(board.vector_count(), order.size());
  }
}

TEST(BulletinBoard, PackedChannelRejectsWidthMismatch) {
  BulletinBoard board;
  board.post_vector(3, 0, BitVector(16));
  EXPECT_DEATH(board.post_vector(3, 1, BitVector(17)),
               "vector post width differs from the channel's width");
  EXPECT_DEATH(
      {
        auto writer = board.vector_channel(3);
        writer.post(1, BitVector(15));
      },
      "vector post width differs from the channel's width");
  // A different channel fixes its own width.
  board.post_vector(4, 0, BitVector(17));
  EXPECT_EQ(board.vector_count(), 2u);
}

TEST(BulletinBoard, AllReportsCollectsChannel) {
  BulletinBoard board(BoardRetention::kFull);
  for (ObjectId o = 0; o < 10; ++o) board.post_report(9, 0, o, o % 2 == 0);
  const auto all = board.all_reports(9);
  EXPECT_EQ(all.size(), 10u);
}

// A report channel is one arena in posting order: single posts and blocks
// interleave exactly as posted, and all_reports orders by object without
// reordering within an object.
TEST(BulletinBoard, ReportBlocksKeepPostingOrder) {
  BulletinBoard board(BoardRetention::kFull);
  constexpr std::uint64_t kTag = 11;
  constexpr std::uint64_t kTwin = kTag + 64;  // same shard, other channel
  std::vector<ProbeReport> expected;
  PlayerId author = 0;
  const auto next = [&](ObjectId o) {
    const ProbeReport r{author, o, author % 3 == 0};
    ++author;
    expected.push_back(r);
    return r;
  };
  for (int round = 0; round < 3; ++round) {
    const ProbeReport single = next(2);
    board.post_report(kTag, single.author, single.object, single.value);
    board.post_report(kTwin, 900, 2, true);
    std::vector<ProbeReport> block;
    for (const ObjectId o : {ObjectId{4}, ObjectId{0}, ObjectId{2}, ObjectId{4}})
      block.push_back(next(o));
    board.post_reports(kTag, block);
    board.post_reports(kTag, {});  // an empty block changes nothing
  }
  const ProbeReport tail = next(0);
  board.post_report(kTag, tail.author, tail.object, tail.value);

  for (const ObjectId o : {ObjectId{0}, ObjectId{2}, ObjectId{4}}) {
    std::vector<ProbeReport> want;
    for (const ProbeReport& r : expected)
      if (r.object == o) want.push_back(r);
    const auto got = board.reports_for(kTag, o);
    ASSERT_EQ(got.size(), want.size()) << "object " << o;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].author, want[i].author) << "object " << o << " report " << i;
      EXPECT_EQ(got[i].object, o);
      EXPECT_EQ(got[i].value, want[i].value);
    }
  }
  EXPECT_TRUE(board.reports_for(kTag, 1).empty());

  std::vector<ProbeReport> sorted = expected;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ProbeReport& a, const ProbeReport& b) {
                     return a.object < b.object;
                   });
  const auto all = board.all_reports(kTag);
  ASSERT_EQ(all.size(), sorted.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].author, sorted[i].author) << "report " << i;
    EXPECT_EQ(all[i].object, sorted[i].object) << "report " << i;
    EXPECT_EQ(all[i].value, sorted[i].value) << "report " << i;
  }

  const auto twin = board.all_reports(kTwin);
  ASSERT_EQ(twin.size(), 3u);
  for (const ProbeReport& r : twin) EXPECT_EQ(r.author, 900u);
  EXPECT_TRUE(board.all_reports(kTag + 1).empty());
  EXPECT_EQ(board.report_count(), expected.size() + twin.size());
}

// A writer charges vector_count once, when it closes; a moved-from writer
// charges nothing and the moved-to one charges every post made through
// either.
TEST(BulletinBoard, VectorCountLandsWhenWriterCloses) {
  BulletinBoard board(BoardRetention::kFull);
  BulletinBoard reference(BoardRetention::kFull);
  Rng rng(0x51c);
  std::vector<BitVector> posted;
  for (int i = 0; i < 7; ++i) posted.push_back(random_bitvector(20, rng));
  const auto post = [&](PlayerId p) { reference.post_vector(8, p, posted[p]); };

  {
    auto writer = board.vector_channel(8);
    writer.post(0, posted[0]);
    writer.post(1, posted[1]);
  }
  post(0);
  post(1);
  EXPECT_EQ(board.vector_count(), 2u);

  {
    auto first = board.vector_channel(8);
    first.post(2, posted[2]);
    auto second = std::move(first);
    second.post(3, posted[3]);
    second.post(4, posted[4]);
  }
  post(2);
  post(3);
  post(4);
  EXPECT_EQ(board.vector_count(), 5u);

  { auto empty = board.vector_channel(8); }
  EXPECT_EQ(board.vector_count(), 5u);

  board.post_vector(8, 5, posted[5]);
  post(5);
  EXPECT_EQ(board.vector_count(), 6u);
  {
    auto writer = board.vector_channel(8);
    writer.post(6, posted[6]);
  }
  post(6);
  EXPECT_EQ(board.vector_count(), 7u);
  EXPECT_EQ(board.vector_count(), reference.vector_count());

  const auto got = board.vectors(8);
  const auto want = reference.vectors(8);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].author, want[i].author) << "post " << i;
    EXPECT_EQ(got[i].vector, want[i].vector) << "post " << i;
  }
}

TEST(BulletinBoard, ConcurrentPostsAllLand) {
  BulletinBoard board(BoardRetention::kFull);
  ThreadPool pool(4);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  policy.par_for(0, 2000, [&](std::size_t i) {
    board.post_report(3, static_cast<PlayerId>(i), static_cast<ObjectId>(i % 16),
                      true);
  });
  EXPECT_EQ(board.report_count(), 2000u);
  std::size_t total = 0;
  for (ObjectId o = 0; o < 16; ++o) total += board.reports_for(3, o).size();
  EXPECT_EQ(total, 2000u);
}

// ---- retention ---------------------------------------------------------------
// A kCounts board (the default) frees a vector channel at its support read
// and keeps no report log; kFull keeps both. Counts and rankings agree.

TEST(BoardRetention, TakeSupportConsumesOnlyOnACountsBoard) {
  Rng rng(0x7a4e);
  const BitVector a = random_bitvector(40, rng), b = random_bitvector(40, rng);
  for (const BoardRetention retention :
       {BoardRetention::kCounts, BoardRetention::kFull}) {
    BulletinBoard board(retention);
    {
      auto writer = board.vector_channel(6);
      writer.post(0, b);
      writer.post(1, a);
      writer.post(2, a);
    }
    board.post_vector(6 + 64, 0, b);  // a same-shard neighbour is left alone

    const auto first = board.take_support(6);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].vector, a);
    EXPECT_EQ(first[0].support, 2u);
    EXPECT_EQ(first[1].vector, b);
    EXPECT_EQ(first[1].support, 1u);

    const auto second = board.take_support(6);
    if (retention == BoardRetention::kCounts) {
      EXPECT_TRUE(second.empty());
    } else {
      ASSERT_EQ(second.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].vector, first[i].vector);
        EXPECT_EQ(second[i].support, first[i].support);
      }
      EXPECT_EQ(board.vectors(6).size(), 3u);
    }
    EXPECT_EQ(board.vector_count(), 4u);  // a read never uncounts a post
    const auto neighbour = board.take_support(6 + 64);
    ASSERT_EQ(neighbour.size(), 1u);
    EXPECT_EQ(neighbour[0].vector, b);

    // A consumed channel starts afresh on its next publication.
    board.post_vector(6, 3, b);
    const auto again = board.take_support(6);
    ASSERT_FALSE(again.empty());
    EXPECT_EQ(again[0].support,
              retention == BoardRetention::kCounts ? 1u : 2u);
  }
}

TEST(BoardRetention, LogReadersFailOnACountsBoard) {
  BulletinBoard board;  // the default retention is kCounts
  board.post_report(1, 10, 5, true);
  const ProbeReport block[] = {{11, 5, false}, {12, 6, true}};
  board.post_reports(1, block);
  board.post_vector(2, 0, BitVector(8));
  EXPECT_EQ(board.report_count(), 3u);
  EXPECT_EQ(board.vector_count(), 1u);

  const auto expect_named = [](const auto& read, const std::string& reader) {
    try {
      read();
      ADD_FAILURE() << reader << " returned on a counts board";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("BulletinBoard::" + reader), std::string::npos) << msg;
      EXPECT_NE(msg.find("BoardRetention::kFull"), std::string::npos) << msg;
    }
  };
  expect_named([&] { (void)board.all_reports(1); }, "all_reports");
  expect_named([&] { (void)board.reports_for(1, 5); }, "reports_for");
  expect_named([&] { (void)board.vectors(2); }, "vectors");
}

TEST(HonestBeacon, DeterministicPerPhase) {
  HonestBeacon a(5), b(5);
  EXPECT_EQ(a.seed_for(1), b.seed_for(1));
  EXPECT_NE(a.seed_for(1), a.seed_for(2));
  EXPECT_TRUE(a.honest());
}

TEST(HonestBeacon, DifferentRootsDiffer) {
  HonestBeacon a(5), b(6);
  EXPECT_NE(a.seed_for(1), b.seed_for(1));
}

TEST(GrindingBeacon, NoObjectiveIsPredictable) {
  GrindingBeacon g(7, 1, nullptr);
  EXPECT_FALSE(g.honest());
  EXPECT_EQ(g.seed_for(3), g.seed_for(3));
}

TEST(GrindingBeacon, GrindsTowardObjective) {
  // Objective: prefer seeds whose low byte is large. With enough attempts the
  // beacon should find a seed with a high low-byte.
  GrindingBeacon g(7, 256, [](std::uint64_t seed, std::uint64_t) {
    return static_cast<double>(seed & 0xff);
  });
  const std::uint64_t chosen = g.seed_for(11);
  EXPECT_GE(chosen & 0xff, 200u);
}

TEST(GrindingBeacon, RngForMatchesSeed) {
  HonestBeacon h(9);
  Rng direct(h.seed_for(4));
  Rng via = h.rng_for(4);
  EXPECT_EQ(direct(), via());
}

}  // namespace
}  // namespace colscore
