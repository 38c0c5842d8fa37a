// The worker pool behind runtime::ThreadPoolExecutor (formerly
// common/thread_pool): every ParallelFor index runs exactly once, on pool
// workers, for any pool size.
#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace sieve {
namespace {

using runtime::ThreadPoolExecutor;

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPoolExecutor pool(2);
  bool touched = false;
  pool.ParallelFor(0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPoolExecutor pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](std::size_t i) {
    EXPECT_NE(std::this_thread::get_id(), caller);
    sum.fetch_add(int(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ZeroRequestedThreadsSizesToHardware) {
  ThreadPoolExecutor pool(0);
  EXPECT_EQ(pool.concurrency(),
            std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<int> ran{0};
  pool.ParallelFor(3, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace sieve
