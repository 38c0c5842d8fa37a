#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sieve::runtime {
namespace {

TEST(SerialExecutor, RunsInOrderOnCallingThread) {
  SerialExecutor exec;
  EXPECT_EQ(exec.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  exec.ParallelFor(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolExecutor, RethrowsAnIterationsExceptionOnTheCaller) {
  ThreadPoolExecutor exec(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(exec.ParallelFor(100,
                                [&](std::size_t i) {
                                  ++ran;
                                  if (i == 42) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool survives: the next loop runs normally.
  std::atomic<int> after{0};
  exec.ParallelFor(8, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(Executor, SpawnWorkerIsDedicatedThread) {
  ThreadPoolExecutor exec(1);
  // A blocking worker must not occupy the single pool slot: ParallelFor has
  // to make progress while the worker is parked.
  std::atomic<bool> release{false};
  std::thread worker = exec.SpawnWorker([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<std::size_t> sum{0};
  exec.ParallelFor(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
  release.store(true);
  worker.join();
}

TEST(ThreadPoolExecutor, NestedParallelForOnTheSamePoolCompletes) {
  // Two workers, four outer iterations each fanning out four inner ones on
  // the same pool: queued inner chunks behind workers parked on their
  // latches would hang forever, so the run is bounded by a deadline.
  ThreadPoolExecutor exec(2);
  std::atomic<int> inner{0};
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    exec.ParallelFor(4, [&](std::size_t) {
      exec.ParallelFor(4, [&](std::size_t) { ++inner; });
    });
    finished.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!finished.load()) {
    // The parked workers can never be joined: fail the binary outright.
    std::fprintf(stderr, "nested ParallelFor deadlocked\n");
    std::abort();
  }
  runner.join();
  EXPECT_EQ(inner.load(), 16);
}

TEST(SharedExecutor, IsProcessWideSingleton) {
  Executor& a = SharedExecutor();
  Executor& b = SharedExecutor();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.concurrency(), 1u);
  EXPECT_EQ(InlineExecutor().concurrency(), 1u);
}

TEST(ResolveExecutor, MapsLegacyThreadKnob) {
  ResolvedExecutor shared = ResolveExecutor(0);
  EXPECT_EQ(shared.executor, &SharedExecutor());
  EXPECT_EQ(shared.owned, nullptr);

  ResolvedExecutor serial = ResolveExecutor(1);
  EXPECT_EQ(serial.executor, &InlineExecutor());
  EXPECT_EQ(serial.owned, nullptr);

  ResolvedExecutor dedicated = ResolveExecutor(3);
  ASSERT_NE(dedicated.owned, nullptr);
  EXPECT_EQ(dedicated.executor, dedicated.owned.get());
  EXPECT_EQ(dedicated.executor->concurrency(), 3u);
}

TEST(Executor, SharedPoolServesConcurrentClients) {
  // Many clients fanning loops onto the one shared pool concurrently — the
  // camera-fleet shape — must each see exactly their own iterations.
  constexpr int kClients = 6;
  constexpr std::size_t kN = 400;
  std::vector<std::thread> clients;
  std::vector<std::size_t> sums(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &sums] {
      std::atomic<std::size_t> sum{0};
      SharedExecutor().ParallelFor(kN, [&](std::size_t i) { sum.fetch_add(i); });
      sums[std::size_t(c)] = sum.load();
    });
  }
  for (auto& t : clients) t.join();
  const std::size_t expect = kN * (kN - 1) / 2;
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(sums[std::size_t(c)], expect);
}

}  // namespace
}  // namespace sieve::runtime
