// Executor: the library's single abstraction over "where does work run".
//
// Every component that used to spin up private threads — the streaming
// encoder's motion-estimation workers, the lookahead analyzer, the dataflow
// pipeline's stage workers — now takes an injected Executor instead. One
// process-wide SharedExecutor() serves any number of concurrent encoders and
// sessions (the camera-fleet scenarios), a SerialExecutor makes tests and
// golden paths deterministic single-threaded runs, and a private
// ThreadPoolExecutor reproduces the old "n dedicated threads" behaviour when
// a component really wants isolation.
//
// Two kinds of work are distinguished on purpose:
//   * ParallelFor — bounded data-parallel loops (macroblock rows, sweeps).
//     These run on the executor's pool and must never block on external
//     events.
//   * SpawnWorker — long-lived workers that block on queues or links
//     (pipeline stages). These always get a dedicated thread: parking a
//     blocking worker in a fixed-size pool slot would deadlock the
//     data-parallel traffic sharing the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sieve::runtime {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Run fn(i) for every i in [0, n); returns when all iterations finished.
  /// Iterations may run on pool threads in any order and must not block on
  /// work scheduled through the same executor; an iteration may itself call
  /// ParallelFor on it (the nested loop runs on the calling thread).
  virtual void ParallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& fn) = 0;

  /// Worker parallelism hint: 1 means ParallelFor runs inline on the caller.
  virtual std::size_t concurrency() const noexcept = 0;

  /// Launch a long-lived worker that may block indefinitely (queue pops,
  /// rate-limited links). Always a dedicated thread — never a pool slot —
  /// so blocking workers cannot starve ParallelFor traffic. The caller owns
  /// the join.
  virtual std::thread SpawnWorker(std::function<void()> fn) {
    return std::thread(std::move(fn));
  }
};

/// Runs every ParallelFor iteration inline on the calling thread, in index
/// order. The deterministic choice for tests and golden/reference paths.
class SerialExecutor final : public Executor {
 public:
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn) override {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  std::size_t concurrency() const noexcept override { return 1; }
};

/// A fixed-size worker pool. `threads == 0` sizes the pool to the hardware
/// concurrency. ParallelFor hands out indices to the workers in chunks and
/// blocks the caller until every iteration has run; an exception thrown by
/// an iteration is rethrown on the caller. A ParallelFor issued from one of
/// this pool's own workers (an iteration that itself fans out) runs inline
/// on that worker, so nested loops on one pool cannot deadlock.
class ThreadPoolExecutor final : public Executor {
 public:
  explicit ThreadPoolExecutor(std::size_t threads = 0);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn) override;
  std::size_t concurrency() const noexcept override { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;               ///< wakes idle workers
  std::queue<std::function<void()>> tasks_;  ///< guarded by mutex_
  bool stopping_ = false;                    ///< guarded by mutex_
  std::vector<std::thread> workers_;  ///< last member: joins before teardown
};

/// The process-wide shared pool, sized to the hardware, constructed on first
/// use. This is what "threads = 0" resolves to everywhere: any number of
/// encoders and runtime sessions share these workers instead of each
/// spinning up a private pool.
Executor& SharedExecutor();

/// The process-wide serial executor ("threads = 1"): inline, deterministic.
Executor& InlineExecutor();

/// An executor resolved from a thread-count knob, plus ownership when the
/// resolution had to construct one.
struct ResolvedExecutor {
  Executor* executor = nullptr;         ///< never null after ResolveExecutor
  std::unique_ptr<Executor> owned;      ///< set only for dedicated pools
};

/// Map the legacy `threads` int onto an executor:
///   0  -> SharedExecutor()            (shared process-wide pool)
///   1  -> InlineExecutor()            (serial, inline)
///   n>1 -> a dedicated ThreadPoolExecutor(n), owned by the caller
/// Negative values resolve like 1.
ResolvedExecutor ResolveExecutor(int threads);

}  // namespace sieve::runtime
