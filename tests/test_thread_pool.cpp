#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include "src/common/exec_policy.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace colscore {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+...+19
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  // Single-threaded execution is in-order.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, DeeplyNestedStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) {
      pool.parallel_for(0, 4, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, GrainRespectsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); }, 7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ThreadCountReported) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.thread_count(), 5u);
}

TEST(ThreadPool, PoolPolicyReportsWorkerCount) {
  ThreadPool pool(2);
  EXPECT_EQ(ExecPolicy::pool(pool).worker_count(), 2u);
  EXPECT_EQ(ExecPolicy::serial().worker_count(), 1u);
}

TEST(ThreadPool, PolicyParForRunsEveryIndex) {
  ThreadPool pool(3);
  const ExecPolicy policy = ExecPolicy::pool(pool);
  std::vector<std::atomic<int>> hits(500);
  policy.par_for(0, 500, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySmallLoops) {
  ThreadPool pool(8);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 10);
  }
}

}  // namespace
}  // namespace colscore
