#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>

namespace sieve::runtime {

namespace {

/// The pool whose worker the current thread is (null off every pool).
thread_local const ThreadPoolExecutor* tls_owner = nullptr;

}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPoolExecutor::WorkerLoop() {
  tls_owner = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPoolExecutor::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (tls_owner == this) {
    // Nested call from one of our own workers: queuing the chunks and
    // waiting would park every worker on its latch with the chunks queued
    // behind them. The calling worker runs the loop itself instead.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A few chunks per worker balance uneven iterations; each chunk pulls
  // indices from a shared counter until the range is exhausted.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  std::atomic<std::size_t> next{0};
  std::latch done{std::ptrdiff_t(chunks)};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto chunk = [&] {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
    done.count_down();
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 0; c < chunks; ++c) tasks_.push(chunk);
  }
  cv_.notify_all();
  done.wait();
  if (error) std::rethrow_exception(error);
}

Executor& SharedExecutor() {
  // Leaked on purpose: worker threads must survive static destruction of
  // arbitrary translation units (encoders and sessions may be destroyed
  // after main returns in test binaries).
  static ThreadPoolExecutor* shared = new ThreadPoolExecutor(0);
  return *shared;
}

Executor& InlineExecutor() {
  static SerialExecutor* serial = new SerialExecutor();
  return *serial;
}

ResolvedExecutor ResolveExecutor(int threads) {
  ResolvedExecutor r;
  if (threads == 0) {
    r.executor = &SharedExecutor();
  } else if (threads <= 1) {
    r.executor = &InlineExecutor();
  } else {
    r.owned = std::make_unique<ThreadPoolExecutor>(std::size_t(threads));
    r.executor = r.owned.get();
  }
  return r;
}

}  // namespace sieve::runtime
