// InferenceBatcher behaviour: size/deadline/forced flushes, bit-exact
// batched predictions, per-camera callback order, shape validation, and
// drain semantics — the live half of the fleet batching tier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
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

TEST(InferenceBatcher, SizeFlushBatchesAndPredictionsBitExact) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount() / 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  policy.deadline_ms = 60'000.0;  // never: size must trigger every flush
  Collector collector;
  std::vector<std::uint32_t> expected_bits;
  {
    InferenceBatcher batcher(classifier, executor, policy);
    for (std::size_t i = 0; i < 8; ++i) {
      nn::Tensor act =
          net.ForwardPrefix(DeterministicInput(net.input_shape(), i), split);
      auto single = classifier.PredictFromEmbedding(
          net.ForwardSuffix(act, split).values());
      ASSERT_TRUE(single.ok());
      expected_bits.push_back(single->bits());
      batcher.Submit(i % 2, split, std::move(act), nn::Precision::kFp32,
                     collector.Callback(i % 2, i));
    }
    batcher.Drain();
    const BatcherStats stats = batcher.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.samples, 8u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.size_flushes, 2u);
    EXPECT_EQ(stats.deadline_flushes, 0u);
    EXPECT_EQ(stats.max_batch, 4u);
    EXPECT_DOUBLE_EQ(stats.occupancy_avg(), 4.0);
  }
  ASSERT_EQ(collector.done.size(), 8u);
  for (const auto& d : collector.done) {
    ASSERT_TRUE(d.label.ok());
    EXPECT_EQ(d.batch_size, 4u);
    EXPECT_EQ(d.label->bits(), expected_bits[d.seq])
        << "sample " << d.seq << ": batched prediction diverged";
  }
}

TEST(InferenceBatcher, DeadlineFlushesPartialBatch) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 100;  // never filled: the deadline must flush
  policy.deadline_ms = 5.0;
  InferenceBatcher batcher(classifier, executor, policy);
  Collector collector;
  for (std::size_t i = 0; i < 3; ++i) {
    batcher.Submit(7, 0, DeterministicInput(net.input_shape(), i),
                   nn::Precision::kFp32, collector.Callback(7, i));
  }
  ASSERT_TRUE(collector.WaitFor(3, std::chrono::seconds(10)))
      << "deadline flush never fired";
  const BatcherStats stats = batcher.stats();
  EXPECT_GE(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.samples, 3u);
  for (const auto& d : collector.done) ASSERT_TRUE(d.label.ok());
}

TEST(InferenceBatcher, FlushAllDrainsPendingWithoutPolicyTrigger) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 100;
  policy.deadline_ms = 60'000.0;
  InferenceBatcher batcher(classifier, executor, policy);
  Collector collector;
  for (std::size_t i = 0; i < 5; ++i) {
    batcher.Submit(3, 0, DeterministicInput(net.input_shape(), i),
                   nn::Precision::kFp32, collector.Callback(3, i));
  }
  batcher.FlushAll();  // async: the kDown path
  ASSERT_TRUE(collector.WaitFor(5, std::chrono::seconds(10)));
  batcher.Drain();
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.samples, 5u);
  EXPECT_GE(stats.forced_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.size_flushes, 0u);
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
  policy.deadline_ms = 2.0;
  policy.fairness_share = 2;
  constexpr std::size_t kCameras = 4;
  constexpr std::size_t kPerCamera = 24;
  Collector collector;
  {
    InferenceBatcher batcher(classifier, executor, policy,
                             /*pending_capacity=*/8);  // exercise backpressure
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

TEST(InferenceBatcher, MixedPrecisionsNeverCrossBatch) {
  const nn::FrameClassifier& classifier = SharedClassifier();
  const nn::Network& net = classifier.network();
  const std::size_t split = net.LayerCount() / 2;

  runtime::SerialExecutor executor;
  FleetSchedulerPolicy policy;
  policy.batch_max = 4;
  policy.deadline_ms = 60'000.0;  // size-only: a mixed batch would reach 4
  Collector collector;
  std::vector<std::uint32_t> expected_bits(8);
  {
    InferenceBatcher batcher(classifier, executor, policy);
    // Interleave fp32 and int8 submissions. With precision in the batch
    // key, each mode fills its own 4-slot batch; without it the first four
    // interleaved samples would flush as one mixed batch and the int8
    // samples would silently run at the wrong precision.
    for (std::size_t i = 0; i < 8; ++i) {
      const nn::Precision precision =
          i % 2 == 0 ? nn::Precision::kFp32 : nn::Precision::kInt8;
      nn::Tensor act = net.ForwardPrefix(DeterministicInput(net.input_shape(), i),
                                         split, precision);
      auto single = classifier.PredictFromEmbedding(
          net.ForwardSuffix(act, split, precision).values());
      ASSERT_TRUE(single.ok());
      expected_bits[i] = single->bits();
      batcher.Submit(i, split, std::move(act), precision,
                     collector.Callback(i, i));
    }
    batcher.Drain();
    const BatcherStats stats = batcher.stats();
    EXPECT_EQ(stats.samples, 8u);
    EXPECT_EQ(stats.batches, 2u) << "one full batch per precision";
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
  policy.deadline_ms = 60'000.0;
  std::atomic<int> completions{0};
  {
    InferenceBatcher batcher(classifier, executor, policy);
    for (std::size_t i = 0; i < 3; ++i) {
      batcher.Submit(1, 0, DeterministicInput(net.input_shape(), i),
                     nn::Precision::kFp32,
                     [&](Expected<synth::LabelSet> label, std::size_t) {
                       EXPECT_TRUE(label.ok());
                       ++completions;
                     });
    }
  }  // ~InferenceBatcher: forced flush, callbacks fire before teardown
  EXPECT_EQ(completions.load(), 3);
}

}  // namespace
}  // namespace sieve::fleet
