// InferenceBatcher behaviour: work-conserving flushes, oldest-key-first
// service, bit-exact batched predictions, per-camera callback order (across
// batch keys and parallel flushers), fairness, shape validation, and drain
// and per-camera await semantics — the live half of the fleet batching
// tier. Batches are built on purpose: a FlusherGate parks a flusher inside
// one sample's callback while a test queues a backlog, so the batches that
// follow are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fleet/batcher.h"
#include "nn/classifier.h"
#include "nn/network.h"
#include "runtime/executor.h"
#include "synth/scene.h"

namespace sieve::fleet {
namespace {

nn::Tensor DeterministicInput(nn::Shape shape, std::size_t salt) {
  nn::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.values()[i] = float(int((i + 17 * salt) % 251) - 125) / 125.0f;
  }
  return t;
}

// One fitted classifier shared by every test (fitting dominates runtime).
const nn::FrameClassifier& SharedClassifier() {
  static const nn::FrameClassifier* classifier = [] {
    synth::SceneConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.num_frames = 40;
    cfg.seed = 321;
    cfg.mean_gap_seconds = 0.6;
    cfg.min_gap_seconds = 0.3;
    cfg.mean_dwell_seconds = 0.8;
    cfg.min_dwell_seconds = 0.4;
    const synth::SyntheticVideo scene = synth::GenerateScene(cfg);
    nn::ClassifierParams params;
    params.input_size = 32;
    params.embedding_dim = 16;
    auto* c = new nn::FrameClassifier(params);
    if (!c->Fit(scene.video.frames, scene.truth, 4).ok()) std::abort();
    return c;
  }();
  return *classifier;
}

// Collects completions and lets tests block until a count is reached.
struct Collector {
  struct Done {
    std::uint64_t camera;
    std::size_t seq;
    Expected<synth::LabelSet> label;
    std::size_t batch_size;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done;

  InferenceBatcher::DoneFn Callback(std::uint64_t camera, std::size_t seq) {
    return [this, camera, seq](Expected<synth::LabelSet> label,
                               std::size_t batch_size) {
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back({camera, seq, std::move(label), batch_size});
      cv.notify_all();
    };
  }
  bool WaitFor(std::size_t count, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, budget,
                       [&] { return done.size() >= count; });
  }
};

// Parks a flusher inside a lone sample's completion callback (which runs on
// the flusher thread), so samples submitted meanwhile queue up as one
// backlog — or, with more flushers, wait while `camera` is in flight.
// Declare it before the batcher: the parked callback touches the gate until
// it returns, and the batcher joins its flushers on destruction.
class FlusherGate {
 public:
  /// Submits the gate sample for `camera` and returns once a flusher is
  /// parked in its callback. The batcher must have a flusher idle.
  void Close(InferenceBatcher& batcher, const nn::Network& net,
             std::uint64_t camera = ~std::uint64_t{0}) {
    const std::size_t split = net.LayerCount();
    batcher.Submit(camera, split,
                   DeterministicInput(net.ShapeAtLayer(split), 999),
                   nn::Precision::kFp32,
                   [this](Expected<synth::LabelSet>, std::size_t) {
                     std::unique_lock<std::mutex> lock(mutex_);
                     parked_ = true;
                     cv_.notify_all();
                     cv_.wait(lock, [this] { return released_; });
                   });
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return parked_; });
  }
  /// Releases the flusher to serve the backlog.
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

TEST(InferenceBatcher, SizeFlushBatchesAndPredictionsBitExact) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount() / 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  Collector collector;
  FlusherGate gate;
  std::vector<std::uint32_t> expected_bits;
  std::vector<nn::Tensor> acts;
  for (std::size_t i = 0; i < 8; ++i) {
    acts.push_back(
        net.ForwardPrefix(DeterministicInput(net.input_shape(), i), split));
    auto single = classifier.PredictFromEmbedding(
        net.ForwardSuffix(acts.back(), split).values());
    ASSERT_TRUE(single.ok());
    expected_bits.push_back(single->bits());
  }
  {
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    for (std::size_t i = 0; i < 8; ++i) {
      batcher.Submit(i % 2, split, std::move(acts[i]), nn::Precision::kFp32,
                     collector.Callback(i % 2, i));
    }
    gate.Open();  // the 8-sample backlog flushes as two full batches
    batcher.Drain();
    const BatcherStats stats = batcher.stats();
    // Counts include the gate's own size-1 flush.
    EXPECT_EQ(stats.submitted, 9u);
    EXPECT_EQ(stats.samples, 9u);
    EXPECT_EQ(stats.batches, 3u);
    EXPECT_EQ(stats.size_flushes, 2u);
    EXPECT_EQ(stats.max_batch, 4u);
    EXPECT_DOUBLE_EQ(stats.occupancy_avg(), 3.0);
  }
  ASSERT_EQ(collector.done.size(), 8u);
  for (const auto& d : collector.done) {
    ASSERT_TRUE(d.label.ok());
    EXPECT_EQ(d.batch_size, 4u);
    EXPECT_EQ(d.label->bits(), expected_bits[d.seq])
        << "sample " << d.seq << ": batched prediction diverged";
  }
}

TEST(InferenceBatcher, BacklogBehindBusyFlusherIsTheNextBatch) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount();

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  for (const std::size_t backlog : {std::size_t{3}, std::size_t{6}}) {
    Collector collector;
    FlusherGate gate;
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    for (std::size_t i = 0; i < backlog; ++i) {
      batcher.Submit(1, split, DeterministicInput(net.ShapeAtLayer(split), i),
                     nn::Precision::kFp32, collector.Callback(1, i));
    }
    gate.Open();
    batcher.Drain();
    ASSERT_EQ(collector.done.size(), backlog);
    // The flush after the gate takes min(backlog, batch_max); the rest of
    // the backlog rides the one after.
    const std::size_t first = std::min(backlog, policy.batch_max);
    for (std::size_t i = 0; i < backlog; ++i) {
      EXPECT_EQ(collector.done[i].seq, i);
      EXPECT_EQ(collector.done[i].batch_size,
                i < first ? first : backlog - first)
          << "backlog " << backlog << ", sample " << i;
    }
  }
}

TEST(InferenceBatcher, LoneSampleOnIdleBatcherFlushesAtOnce) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 16;
  Collector collector;
  InferenceBatcher batcher(classifier, executor, policy);
  batcher.Submit(7, 0, DeterministicInput(net.input_shape(), 0),
                 nn::Precision::kFp32, collector.Callback(7, 0));
  // No Drain: an idle flusher serves the sample without waiting for the
  // batch to fill.
  ASSERT_TRUE(collector.WaitFor(1, std::chrono::seconds(10)))
      << "an idle batcher held a lone sample";
  std::lock_guard<std::mutex> lock(collector.mutex);
  ASSERT_TRUE(collector.done[0].label.ok());
  EXPECT_EQ(collector.done[0].batch_size, 1u);
}

TEST(InferenceBatcher, OldestKeyFlushesFirstWhileAnotherIsRefilled) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  // Key A sorts before key B in (split, precision) order.
  const std::size_t split_a = net.LayerCount() - 1;
  const std::size_t split_b = net.LayerCount();
  constexpr int kRefills = 3;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](std::string name) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(std::move(name));
  };
  FlusherGate gate;
  {
    InferenceBatcher batcher(classifier, executor, policy);
    // Each key-A completion submits the next key-A sample from the flusher
    // thread, so key A is pending again every time the flusher picks a key.
    std::function<void(int)> submit_a = [&](int n) {
      batcher.Submit(1, split_a,
                     DeterministicInput(net.ShapeAtLayer(split_a), n),
                     nn::Precision::kFp32,
                     [&, n](Expected<synth::LabelSet> label, std::size_t) {
                       EXPECT_TRUE(label.ok());
                       record("a" + std::to_string(n));
                       if (n < kRefills) submit_a(n + 1);
                     });
    };
    gate.Close(batcher, net);
    submit_a(0);
    batcher.Submit(2, split_b, DeterministicInput(net.ShapeAtLayer(split_b), 0),
                   nn::Precision::kFp32,
                   [&](Expected<synth::LabelSet> label, std::size_t) {
                     EXPECT_TRUE(label.ok());
                     record("b");
                   });
    gate.Open();
    batcher.Drain();
  }
  // b has been waiting longer than every refill, so it flushes right after
  // a0; choosing keys in map order would serve a1..a3 first.
  EXPECT_EQ(order, (std::vector<std::string>{"a0", "b", "a1", "a2", "a3"}));
}

TEST(InferenceBatcher, CameraOrderHoldsAcrossBatchKeys) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split_a = net.LayerCount() - 1;
  const std::size_t split_b = net.LayerCount();
  constexpr std::uint64_t kCameraX = 1, kCameraY = 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  Collector collector;
  FlusherGate gate;
  {
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    // Backlog Y1@a, X2@b, X3@a (a replan flipped camera X's split between
    // its frames 2 and 3). Key a is the oldest, but X3 must not ride it
    // ahead of X2.
    batcher.Submit(kCameraY, split_a,
                   DeterministicInput(net.ShapeAtLayer(split_a), 1),
                   nn::Precision::kFp32, collector.Callback(kCameraY, 1));
    batcher.Submit(kCameraX, split_b,
                   DeterministicInput(net.ShapeAtLayer(split_b), 2),
                   nn::Precision::kFp32, collector.Callback(kCameraX, 2));
    batcher.Submit(kCameraX, split_a,
                   DeterministicInput(net.ShapeAtLayer(split_a), 3),
                   nn::Precision::kFp32, collector.Callback(kCameraX, 3));
    gate.Open();
    batcher.Drain();
  }
  const std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>>
      expected = {{kCameraY, 1, 1}, {kCameraX, 2, 1}, {kCameraX, 3, 1}};
  ASSERT_EQ(collector.done.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& d = collector.done[i];
    ASSERT_TRUE(d.label.ok());
    EXPECT_EQ(std::make_tuple(d.camera, d.seq, d.batch_size), expected[i])
        << "completion " << i;
  }
}

TEST(InferenceBatcher, ParallelFlushersServeOtherCamerasWhileOneIsInFlight) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount();
  constexpr std::uint64_t kCameraA = 1, kCameraB = 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  Collector collector;
  FlusherGate gate;
  {
    InferenceBatcher batcher(classifier, executor, policy,
                             /*pending_capacity=*/0, /*flushers=*/2);
    gate.Close(batcher, net, kCameraA);  // A's frame 0 parks one flusher
    batcher.Submit(kCameraA, split,
                   DeterministicInput(net.ShapeAtLayer(split), 1),
                   nn::Precision::kFp32, collector.Callback(kCameraA, 1));
    batcher.Submit(kCameraB, split,
                   DeterministicInput(net.ShapeAtLayer(split), 2),
                   nn::Precision::kFp32, collector.Callback(kCameraB, 0));
    // The other flusher serves B while A's callback is parked; A's frame 1,
    // though older than B's, waits for A's frame 0. EXPECT, not ASSERT:
    // the gate must open or the batcher's destructor waits forever.
    EXPECT_TRUE(collector.WaitFor(1, std::chrono::seconds(10)))
        << "no flusher served camera B while camera A was in flight";
    {
      std::lock_guard<std::mutex> lock(collector.mutex);
      EXPECT_EQ(collector.done.size(), 1u);
      if (!collector.done.empty()) {
        EXPECT_EQ(collector.done[0].camera, kCameraB);
        EXPECT_EQ(collector.done[0].batch_size, 1u);
      }
    }
    gate.Open();
    batcher.Drain();
  }
  ASSERT_EQ(collector.done.size(), 2u);
  EXPECT_EQ(collector.done[1].camera, kCameraA);
  EXPECT_EQ(collector.done[1].seq, 1u);
  EXPECT_TRUE(collector.done[1].label.ok());
}

TEST(InferenceBatcher, AwaitCameraWaitsForThatCameraOnly) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount();
  constexpr std::uint64_t kCameraA = 1, kCameraB = 2;

  runtime::SerialExecutor executor;
  Collector collector;
  FlusherGate gate;
  std::atomic<bool> opened{false};
  bool returned_after_open = false;
  std::size_t done_at_return = 0;
  {
    InferenceBatcher batcher(classifier, executor, {});
    gate.Close(batcher, net, kCameraA);  // A's frame 0 is in flight, parked
    batcher.Submit(kCameraA, split,
                   DeterministicInput(net.ShapeAtLayer(split), 1),
                   nn::Precision::kFp32, collector.Callback(kCameraA, 1));
    batcher.AwaitCamera(kCameraB);  // B has nothing queued: returns at once
    std::thread waiter([&] {
      batcher.AwaitCamera(kCameraA);
      returned_after_open = opened.load();
      std::lock_guard<std::mutex> lock(collector.mutex);
      done_at_return = collector.done.size();
    });
    // Give a wrong AwaitCamera the chance to return while A is in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    opened = true;
    gate.Open();
    waiter.join();
    batcher.Drain();
  }
  EXPECT_TRUE(returned_after_open) << "returned while A's frame 0 was parked";
  EXPECT_EQ(done_at_return, 1u) << "returned before A's pending frame 1";
}

TEST(InferenceBatcher, FairnessShareCapsHotCameraInABacklog) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount();

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  policy.fairness_share = 2;
  Collector collector;
  FlusherGate gate;
  {
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    // Camera 1 floods four samples ahead of camera 2's two.
    for (std::size_t seq = 0; seq < 4; ++seq) {
      batcher.Submit(1, split,
                     DeterministicInput(net.ShapeAtLayer(split), seq),
                     nn::Precision::kFp32, collector.Callback(1, seq));
    }
    for (std::size_t seq = 0; seq < 2; ++seq) {
      batcher.Submit(2, split,
                     DeterministicInput(net.ShapeAtLayer(split), 10 + seq),
                     nn::Precision::kFp32, collector.Callback(2, seq));
    }
    gate.Open();
    batcher.Drain();
  }
  // Camera 1 keeps two slots of the first batch; camera 2 fills the rest,
  // and camera 1's excess rides the next flush, still in order.
  const std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>>
      expected = {{1, 0, 4}, {1, 1, 4}, {2, 0, 4}, {2, 1, 4},
                  {1, 2, 2}, {1, 3, 2}};
  ASSERT_EQ(collector.done.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& d = collector.done[i];
    ASSERT_TRUE(d.label.ok());
    EXPECT_EQ(std::make_tuple(d.camera, d.seq, d.batch_size), expected[i])
        << "completion " << i;
  }
}

TEST(InferenceBatcher, RejectsShapeMismatchImmediately) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  runtime::SerialExecutor executor;
  InferenceBatcher batcher(classifier, executor, {});
  bool called = false;
  // Split 1's expected shape differs from the input shape — reject.
  batcher.Submit(1, 1,
                 DeterministicInput(classifier.network().input_shape(), 0),
                 nn::Precision::kFp32,
                 [&](Expected<synth::LabelSet> label, std::size_t batch_size) {
                   called = true;
                   EXPECT_FALSE(label.ok());
                   EXPECT_EQ(batch_size, 0u);
                 });
  EXPECT_TRUE(called) << "shape mismatch must fail on the calling thread";
  batcher.Drain();
  EXPECT_EQ(batcher.stats().submitted, 0u);
}

TEST(InferenceBatcher, PerCameraCallbackOrderSurvivesConcurrentSubmitters) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount();  // embeddings: cheap samples

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  policy.fairness_share = 2;
  constexpr std::size_t kCameras = 4;
  constexpr std::size_t kPerCamera = 24;
  for (const std::size_t flushers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("flushers " + std::to_string(flushers));
    Collector collector;
    {
      InferenceBatcher batcher(classifier, executor, policy,
                               /*pending_capacity=*/8,  // exercise backpressure
                               flushers);
      std::vector<std::thread> submitters;
      for (std::size_t cam = 0; cam < kCameras; ++cam) {
        submitters.emplace_back([&, cam] {
          for (std::size_t seq = 0; seq < kPerCamera; ++seq) {
            batcher.Submit(cam, split,
                           DeterministicInput(net.ShapeAtLayer(split),
                                              cam * 100 + seq),
                           nn::Precision::kFp32, collector.Callback(cam, seq));
          }
        });
      }
      for (auto& t : submitters) t.join();
      batcher.Drain();
      EXPECT_EQ(batcher.stats().samples, kCameras * kPerCamera);
    }
    ASSERT_EQ(collector.done.size(), kCameras * kPerCamera);
    std::vector<std::size_t> next(kCameras, 0);
    for (const auto& d : collector.done) {
      ASSERT_TRUE(d.label.ok());
      EXPECT_EQ(d.seq, next[d.camera])
          << "camera " << d.camera << ": batching reordered deliveries";
      ++next[d.camera];
    }
  }
}

TEST(InferenceBatcher, MixedPrecisionsNeverCrossBatch) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount() / 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  Collector collector;
  FlusherGate gate;
  const auto precision_of = [](std::size_t i) {
    return i % 2 == 0 ? nn::Precision::kFp32 : nn::Precision::kInt8;
  };
  std::vector<std::uint32_t> expected_bits;
  std::vector<nn::Tensor> acts;
  for (std::size_t i = 0; i < 8; ++i) {
    acts.push_back(net.ForwardPrefix(DeterministicInput(net.input_shape(), i),
                                     split, precision_of(i)));
    auto single = classifier.PredictFromEmbedding(
        net.ForwardSuffix(acts.back(), split, precision_of(i)).values());
    ASSERT_TRUE(single.ok());
    expected_bits.push_back(single->bits());
  }
  {
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    // Interleave fp32 and int8 submissions into one backlog. With precision
    // in the batch key, each mode fills its own 4-slot batch; without it
    // the first four interleaved samples would flush as one mixed batch and
    // the int8 samples would silently run at the wrong precision.
    for (std::size_t i = 0; i < 8; ++i) {
      batcher.Submit(i, split, std::move(acts[i]), precision_of(i),
                     collector.Callback(i, i));
    }
    gate.Open();
    batcher.Drain();
    const BatcherStats stats = batcher.stats();
    EXPECT_EQ(stats.samples, 9u);
    EXPECT_EQ(stats.batches, 3u)
        << "one full batch per precision, after the gate's";
    EXPECT_EQ(stats.size_flushes, 2u);
  }
  ASSERT_EQ(collector.done.size(), 8u);
  for (const auto& d : collector.done) {
    ASSERT_TRUE(d.label.ok());
    EXPECT_EQ(d.batch_size, 4u);
    EXPECT_EQ(d.label->bits(), expected_bits[d.seq])
        << "sample " << d.seq << ": batched prediction diverged from the "
        << "per-sample pass at its own precision";
  }
}

TEST(InferenceBatcher, DestructorDrainsOutstandingWork) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 100;
  std::atomic<int> completions{0};
  FlusherGate gate;
  {
    InferenceBatcher batcher(classifier, executor, policy);
    gate.Close(batcher, net);
    for (std::size_t i = 0; i < 3; ++i) {
      batcher.Submit(1, 0, DeterministicInput(net.input_shape(), i),
                     nn::Precision::kFp32,
                     [&](Expected<synth::LabelSet> label, std::size_t) {
                       EXPECT_TRUE(label.ok());
                       ++completions;
                     });
    }
    gate.Open();
  }  // ~InferenceBatcher: the backlog flushes, callbacks fire before teardown
  EXPECT_EQ(completions.load(), 3);
}

}  // namespace
}  // namespace sieve::fleet
