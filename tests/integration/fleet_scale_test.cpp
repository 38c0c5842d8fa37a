// Fleet-scale acceptance of the batching tier (docs/fleet.md): 64 live
// sessions stream through one Runtime with cross-session batched cloud
// inference enabled, and
//
//   * every camera's database is identical to an isolated run of the same
//     feed at size-1 flushes — the batch is invisible to per-camera results;
//   * under 5% scripted WAN loss every session's delivered-or-dropped
//     ledger reconciles exactly (no frame is silently lost in the batcher);
//   * when the WAN trips kDown, frames already across the link settle as
//     delivered (the batcher never holds a frame while its flusher is
//     free), and sessions fall back edge-only.
//
// Frames are pre-encoded once and pushed as wire bytes, so the run stays
// small enough for the sanitizer jobs while still exercising 64 concurrent
// submitters against one batcher.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/container.h"
#include "codec/encoder.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

constexpr int kCameras = 64;
constexpr std::size_t kFrames = 24;
constexpr double kFps = 5.0;

synth::SyntheticVideo FleetScene() {
  synth::SceneConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = kFrames;
  c.seed = 4242;
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  return synth::GenerateScene(c);
}

const nn::FrameClassifier& FleetClassifier() {
  static const nn::FrameClassifier* classifier = [] {
    const synth::SyntheticVideo scene = FleetScene();
    nn::ClassifierParams cp;
    cp.input_size = 32;
    cp.embedding_dim = 16;
    auto* c = new nn::FrameClassifier(cp);
    if (!c->Fit(scene.video.frames, scene.truth, 4).ok()) std::abort();
    return c;
  }();
  return *classifier;
}

codec::EncodedVideo EncodeOnce() {
  auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(4, 120))
                     .Encode(FleetScene().video);
  EXPECT_TRUE(encoded.ok());
  return std::move(*encoded);
}

Status PushRecord(SieveSession& session,
                  std::span<const std::uint8_t> container,
                  const codec::FrameRecord& record) {
  return session.PushEncoded(
      record.type, record.index,
      container.subspan(record.payload_offset - codec::FrameRecord::kHeaderSize,
                        codec::FrameRecord::kHeaderSize + record.payload_size));
}

SessionConfig FleetSessionConfig() {
  SessionConfig sc;
  sc.width = 64;
  sc.height = 48;
  sc.fps = kFps;
  sc.encoder = codec::EncoderParams::Semantic(4, 120);
  return sc;
}

void ExpectReconciled(const SessionReport& r) {
  EXPECT_EQ(r.frames_pushed,
            r.frames_stored_edge + r.frames_delivered + r.frames_dropped)
      << r.camera_id << ": a frame was silently lost";
  EXPECT_EQ(r.frames_dropped,
            r.dropped_wan + r.dropped_corrupt + r.dropped_shutdown)
      << r.camera_id;
  EXPECT_EQ(r.frames_delivered, r.labels_written) << r.camera_id;
}

RuntimeConfig BatchedConfig() {
  RuntimeConfig config;
  config.nn_input_size = 32;
  config.cloud_batch_max = 16;
  config.cloud_batch_fairness_share = 4;
  config.wan_parallelism = 2;
  config.cloud_nn_parallelism = 2;
  return config;
}

TEST(FleetScale, BatchedFleetDatabasesMatchIsolatedUnbatchedRun) {
  const nn::FrameClassifier& classifier = FleetClassifier();
  const codec::EncodedVideo encoded = EncodeOnce();
  const std::span<const std::uint8_t> bytes(encoded.bytes);

  // --- Reference: one isolated, size-1-flush, serial-stage session --------
  core::ResultsDatabase reference;
  std::size_t reference_labels = 0;
  {
    RuntimeConfig config;
    config.nn_input_size = 32;  // cloud_batch_max stays 1: size-1 flushes
    Runtime runtime(config, &classifier);
    auto session = runtime.OpenSession("reference", FleetSessionConfig());
    ASSERT_TRUE(session.ok());
    for (const auto& record : encoded.records) {
      ASSERT_TRUE(PushRecord(**session, bytes, record).ok());
    }
    const SessionReport report = (*session)->Drain();
    ExpectReconciled(report);
    reference_labels = report.labels_written;
    reference = (*session)->db();
    ASSERT_TRUE(runtime.Shutdown().ok());
  }
  ASSERT_GT(reference_labels, 0u);

  // --- The fleet: 64 concurrent sessions, batching on --------------------
  Runtime runtime(BatchedConfig(), &classifier);
  std::vector<std::unique_ptr<SieveSession>> sessions;
  for (int cam = 0; cam < kCameras; ++cam) {
    auto session = runtime.OpenSession("cam-" + std::to_string(cam),
                                       FleetSessionConfig());
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  std::vector<std::thread> feeds;
  feeds.reserve(sessions.size());
  for (auto& session : sessions) {
    feeds.emplace_back([&session, bytes, &encoded] {
      for (const auto& record : encoded.records) {
        ASSERT_TRUE(PushRecord(*session, bytes, record).ok());
      }
    });
  }
  for (auto& t : feeds) t.join();

  std::uint64_t batched_frames = 0;
  for (auto& session : sessions) {
    const SessionReport report = session->Drain();
    ExpectReconciled(report);
    EXPECT_EQ(report.frames_pushed, kFrames);
    EXPECT_EQ(report.labels_written, reference_labels) << report.camera_id;
    EXPECT_EQ(report.frames_delivered, report.cloud_batched_frames)
        << report.camera_id << ": every delivered frame rode the batcher";
    EXPECT_GE(report.cloud_batch_occupancy_avg, 1.0) << report.camera_id;
    batched_frames += report.cloud_batched_frames;

    const auto& rows = session->db().rows();
    ASSERT_EQ(rows.size(), reference.rows().size()) << report.camera_id;
    auto expect = reference.rows().begin();
    for (const auto& [frame, labels] : rows) {
      EXPECT_EQ(frame, expect->first) << report.camera_id;
      EXPECT_EQ(labels.bits(), expect->second.bits())
          << report.camera_id << " frame " << frame
          << ": batching changed a prediction";
      ++expect;
    }
  }

  const RuntimeHealth health = runtime.health();
  EXPECT_EQ(health.cloud_batch_samples, batched_frames);
  EXPECT_GT(health.cloud_batches, 0u);
  EXPECT_GT(health.cloud_batch_occupancy_avg, 1.0)
      << "64 concurrent cameras never shared a batch";
  ASSERT_TRUE(runtime.Shutdown().ok());
}

TEST(FleetScale, LedgerReconcilesUnderWanLossWithBatching) {
  const nn::FrameClassifier& classifier = FleetClassifier();
  const codec::EncodedVideo encoded = EncodeOnce();
  const std::span<const std::uint8_t> bytes(encoded.bytes);

  RuntimeConfig config = BatchedConfig();
  config.wan_faults.seed = 77;
  config.wan_faults.drop_probability = 0.05;
  config.wan_retry.max_attempts = 2;
  config.adaptive_placement = false;  // keep every frame on the WAN path
  Runtime runtime(config, &classifier);

  std::vector<std::unique_ptr<SieveSession>> sessions;
  for (int cam = 0; cam < kCameras; ++cam) {
    auto session = runtime.OpenSession("lossy-" + std::to_string(cam),
                                       FleetSessionConfig());
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  std::vector<std::thread> feeds;
  feeds.reserve(sessions.size());
  for (auto& session : sessions) {
    feeds.emplace_back([&session, bytes, &encoded] {
      for (const auto& record : encoded.records) {
        ASSERT_TRUE(PushRecord(*session, bytes, record).ok());
      }
    });
  }
  for (auto& t : feeds) t.join();

  std::size_t delivered = 0;
  for (auto& session : sessions) {
    const SessionReport report = session->Drain();
    ExpectReconciled(report);
    EXPECT_EQ(report.frames_pushed, kFrames);
    delivered += report.frames_delivered;
  }
  EXPECT_GT(delivered, 0u) << "loss killed the whole fleet";
  ASSERT_TRUE(runtime.Shutdown().ok());
}

TEST(FleetScale, WanOutageFlushesBatcherAndFallsBackToEdge) {
  const nn::FrameClassifier& classifier = FleetClassifier();
  const codec::EncodedVideo encoded = EncodeOnce();
  const std::span<const std::uint8_t> bytes(encoded.bytes);

  RuntimeConfig config = BatchedConfig();
  // Outage over stream seconds [1, inf): the first frames cross cleanly,
  // everything after trips the link down.
  config.wan_faults.seed = 5;
  config.wan_faults.outages.push_back({1.0, 1e9});
  config.wan_retry.max_attempts = 2;
  config.wan_retry.deadline_ms = 1000.0;
  config.wan_health.down_after_failures = 2;
  Runtime runtime(config, &classifier);

  constexpr int kOutageCameras = 8;
  std::vector<std::unique_ptr<SieveSession>> sessions;
  for (int cam = 0; cam < kOutageCameras; ++cam) {
    auto session = runtime.OpenSession("outage-" + std::to_string(cam),
                                       FleetSessionConfig());
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  std::vector<std::thread> feeds;
  feeds.reserve(sessions.size());
  for (auto& session : sessions) {
    feeds.emplace_back([&session, bytes, &encoded] {
      for (const auto& record : encoded.records) {
        ASSERT_TRUE(PushRecord(*session, bytes, record).ok());
      }
    });
  }
  for (auto& t : feeds) t.join();

  std::size_t delivered = 0;
  std::size_t fallbacks = 0;
  for (auto& session : sessions) {
    const SessionReport report = session->Drain();
    ExpectReconciled(report);
    delivered += report.frames_delivered;
    if (report.replans > 0) ++fallbacks;
  }
  // Frames that crossed before the outage settle as delivered even though
  // the link died while they were in the batcher, which flushes whenever
  // its flusher is free; afterwards the fleet degrades to edge execution
  // instead of deadlocking.
  const RuntimeHealth health = runtime.health();
  EXPECT_EQ(health.wan_link, net::LinkHealth::kDown);
  EXPECT_GE(fallbacks, 1u) << "no session reacted to the outage";
  EXPECT_GT(delivered, 0u);
  ASSERT_TRUE(runtime.Shutdown().ok());
}

}  // namespace
}  // namespace sieve::runtime
