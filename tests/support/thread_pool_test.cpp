#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace stc {
namespace {

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, InlineModeWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);  // inline mode spawns no workers
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(50, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(256, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  std::uint64_t sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 256; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPoolTest, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  // On a single-core host the pool runs inline (no workers); otherwise it
  // spawns one worker per hardware thread. Either way every index runs.
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 1) {
    EXPECT_EQ(pool.thread_count(), hw);
  } else {
    EXPECT_EQ(pool.thread_count(), 0u);
  }
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 10000;
  std::vector<std::atomic<std::uint8_t>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1)
      << "index " << i;
}

TEST(ThreadPoolTest, ResultsIndependentOfExecutionOrder) {
  // Workers may pick up indices in any order; writing into index-addressed
  // slots must still produce the same vector as a serial loop.
  std::vector<std::uint64_t> serial(512);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = i * 2654435761u;

  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(serial.size(), 0);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = i * 2654435761u; });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ++ran;
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // The batch drains fully (no wedged workers) and the pool stays usable.
  EXPECT_EQ(ran.load(), 100);
  std::atomic<int> again{0};
  pool.parallel_for(50, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 50);
}

TEST(ThreadPoolTest, FirstExceptionWinsAndLaterBatchesAreClean) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     10, [&](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
  }
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPoolTest, InlineModeExceptionPropagates) {
  ThreadPool pool(1);  // no workers: tasks run on the caller
  EXPECT_THROW(
      pool.parallel_for(5, [&](std::size_t) { throw std::logic_error("inl"); }),
      std::logic_error);
}

TEST(ThreadPoolTest, MixedDurationStress) {
  // Tasks with wildly different runtimes must all complete exactly once and
  // the pool must stay usable for further batches.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int round = 0; round < 3; ++round) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      if (i % 17 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else if (i % 5 == 0) {
        volatile std::uint64_t spin = 0;
        for (int k = 0; k < 1000; ++k) spin = spin + k;
      }
      ++hits[i];
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

}  // namespace
}  // namespace stc
