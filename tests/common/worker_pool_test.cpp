// WorkerPool: the shared worker pool behind LinkKeyService distillation and
// ShardedScheduler shard execution — inline single-lane path, index
// coverage, caller participation, exception propagation, nested-call
// fallback, and result-publication visibility.
#include "src/common/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qkd::common {
namespace {

TEST(WorkerPool, SingleLaneRunsInlineInAscendingIndexOrder) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.lanes(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, CountOfOneRunsInlineEvenWithThreads) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerPool, ResultsWrittenByTasksAreVisibleAfterReturn) {
  WorkerPool pool(4);
  // Plain (non-atomic) writes: parallel_for's completion barrier must
  // publish them to the caller.
  std::vector<std::size_t> squares(512, 0);
  pool.parallel_for(squares.size(),
                    [&](std::size_t i) { squares[i] = i * i; });
  for (std::size_t i = 0; i < squares.size(); ++i)
    ASSERT_EQ(squares[i], i * i);
}

TEST(WorkerPool, FirstExceptionIsRethrownAfterAllIndicesSettle) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Every index was claimed (a throw skips none of the others).
  EXPECT_EQ(ran.load(), 64);
  // The pool survives for the next batch.
  std::atomic<int> again{0};
  pool.parallel_for(16, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 16);
}

TEST(WorkerPool, SingleLaneRethrowsAfterEveryIndexRan) {
  WorkerPool pool(1);
  std::vector<std::size_t> order;
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   order.push_back(i);
                                   if (i == 2) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The inline path keeps the multi-lane contract: still in order, and the
  // throw skips none of the later indices.
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, NestedParallelForRunsInline) {
  WorkerPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    // A task that re-enters the pool must not deadlock: the nested call
    // runs inline on the same lane.
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(WorkerPool, ZeroCountIsANoOp) {
  WorkerPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, DefaultLanesIsAtLeastOne) {
  EXPECT_GE(WorkerPool::default_lanes(), 1u);
  EXPECT_LE(WorkerPool::default_lanes(), 8u);
}

}  // namespace
}  // namespace qkd::common
