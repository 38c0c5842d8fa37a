#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/decoder.h"
#include "codec/still.h"
#include "media/image_ops.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

synth::SyntheticVideo SmallScene(std::uint64_t seed) {
  synth::SceneConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = 40;
  c.seed = seed;
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  return synth::GenerateScene(c);
}

class RuntimeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new synth::SyntheticVideo(SmallScene(7));
    nn::ClassifierParams cp;
    cp.input_size = 32;
    cp.embedding_dim = 16;
    classifier_ = new nn::FrameClassifier(cp);
    ASSERT_TRUE(classifier_->Fit(scene_->video.frames, scene_->truth, 4).ok());
  }
  static void TearDownTestSuite() {
    delete scene_;
    delete classifier_;
  }

  static RuntimeConfig SmallConfig() {
    RuntimeConfig config;
    config.nn_input_size = 32;
    return config;
  }
  static SessionConfig SceneSession() {
    SessionConfig config;
    config.width = 64;
    config.height = 48;
    config.encoder = codec::EncoderParams::Semantic(8, 120);
    return config;
  }

  static synth::SyntheticVideo* scene_;
  static nn::FrameClassifier* classifier_;
};

synth::SyntheticVideo* RuntimeTest::scene_ = nullptr;
nn::FrameClassifier* RuntimeTest::classifier_ = nullptr;

TEST_F(RuntimeTest, RejectsUnfittedClassifier) {
  nn::FrameClassifier unfitted;
  Runtime runtime(SmallConfig(), &unfitted);
  EXPECT_FALSE(runtime.OpenSession("cam", SceneSession()).ok());
}

TEST_F(RuntimeTest, RejectsOddDimensionsAndDuplicateIds) {
  Runtime runtime(SmallConfig(), classifier_);
  SessionConfig odd = SceneSession();
  odd.width = 63;
  EXPECT_FALSE(runtime.OpenSession("cam", odd).ok());

  auto first = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(runtime.OpenSession("cam", SceneSession()).ok());
  EXPECT_EQ(runtime.session_count(), 1u);
}

TEST_F(RuntimeTest, RejectsNonPositiveOrNonFiniteFps) {
  Runtime runtime(SmallConfig(), classifier_);
  for (const double fps : {0.0, -30.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SessionConfig config = SceneSession();
    config.fps = fps;
    const auto session = runtime.OpenSession("cam", config);
    ASSERT_FALSE(session.ok()) << "fps " << fps;
    EXPECT_EQ(session.status().code(), ErrorCode::kInvalidArgument)
        << "fps " << fps;
  }
  EXPECT_EQ(runtime.session_count(), 0u);
  EXPECT_EQ(runtime.query().version(), 0u) << "nothing registered";
  EXPECT_TRUE(runtime.OpenSession("cam", SceneSession()).ok());
}

TEST_F(RuntimeTest, SingleSessionStreamsToItsDatabase) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*session)->PushFrame(frame).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.camera_id, "gate");
  EXPECT_EQ(report.frames_pushed, scene_->video.frames.size());
  EXPECT_GT(report.iframes_selected, 0u);
  EXPECT_EQ(report.labels_written, report.iframes_selected);
  EXPECT_EQ((*session)->db().size(), report.iframes_selected);
  EXPECT_GT(report.camera_to_edge_bytes, 0u);
  EXPECT_GT(report.edge_to_cloud_bytes, 0u);

  auto stats = runtime.Shutdown();
  ASSERT_TRUE(stats.ok());
  // One source + seeker, transcode, edge-nn, wan, cloud-nn, cloud-sink.
  ASSERT_EQ(stats->size(), 7u);
  EXPECT_EQ(stats->front().name, "gate");
  EXPECT_EQ(stats->front().out, report.frames_pushed);
  EXPECT_EQ(stats->back().name, "cloud/sink");
  EXPECT_EQ(stats->back().in, report.iframes_selected);
}

TEST_F(RuntimeTest, PushAfterCloseFails) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  (*session)->Close();
  EXPECT_FALSE((*session)->PushFrame(scene_->video.frames[1]).ok());
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.frames_pushed, 1u);
}

TEST_F(RuntimeTest, CameraIdReusableAfterClose) {
  Runtime runtime(SmallConfig(), classifier_);
  auto first = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)->PushFrame(scene_->video.frames[0]).ok());
  const SessionReport first_report = (*first)->Drain();
  EXPECT_EQ(first_report.frames_pushed, 1u);
  EXPECT_EQ(runtime.session_count(), 0u);

  // The reconnecting camera reopens under the same id; the first
  // incarnation's results stay reachable through its own handle.
  auto second = runtime.OpenSession("gate", SceneSession());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(runtime.session_count(), 1u);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE((*second)->PushFrame(scene_->video.frames[i]).ok());
  }
  const SessionReport second_report = (*second)->Drain();
  EXPECT_EQ(second_report.frames_pushed, 5u);
  EXPECT_EQ((*first)->db().size(), first_report.labels_written);
  EXPECT_EQ((*second)->db().size(), second_report.labels_written);
}

TEST_F(RuntimeTest, DroppedHandleClosesSession) {
  Runtime runtime(SmallConfig(), classifier_);
  {
    auto session = runtime.OpenSession("gate", SceneSession());
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  }  // handle dropped without Close()/Drain()
  EXPECT_EQ(runtime.session_count(), 0u);
  auto reopened = runtime.OpenSession("gate", SceneSession());
  EXPECT_TRUE(reopened.ok()) << "dropped handle must free the camera id";
}

TEST_F(RuntimeTest, ShutdownIsOneShotAndClosesSessions) {
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[0]).ok());
  ASSERT_TRUE(runtime.Shutdown().ok());
  EXPECT_FALSE(runtime.Shutdown().ok());
  EXPECT_FALSE(runtime.OpenSession("late", SceneSession()).ok());
  // The in-flight frame settled during shutdown; the session handle stays
  // valid and Drain() returns immediately.
  EXPECT_FALSE((*session)->PushFrame(scene_->video.frames[1]).ok());
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.frames_pushed, 1u);
}

TEST_F(RuntimeTest, ConcurrentSessionsAreIsolated) {
  Runtime runtime(SmallConfig(), classifier_);
  const synth::SyntheticVideo other = SmallScene(23);

  auto a = runtime.OpenSession("cam-a", SceneSession());
  auto b = runtime.OpenSession("cam-b", SceneSession());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::thread ta([&] {
    for (const auto& frame : scene_->video.frames) {
      ASSERT_TRUE((*a)->PushFrame(frame).ok());
    }
  });
  std::thread tb([&] {
    for (const auto& frame : other.video.frames) {
      ASSERT_TRUE((*b)->PushFrame(frame).ok());
    }
  });
  ta.join();
  tb.join();
  const SessionReport ra = (*a)->Drain();
  const SessionReport rb = (*b)->Drain();
  EXPECT_EQ(ra.frames_pushed, scene_->video.frames.size());
  EXPECT_EQ(rb.frames_pushed, other.video.frames.size());
  EXPECT_EQ((*a)->db().size(), ra.iframes_selected);
  EXPECT_EQ((*b)->db().size(), rb.iframes_selected);

  // Same feed through an isolated one-camera runtime: per-camera results
  // must be unaffected by the other session sharing the tiers.
  Runtime isolated(SmallConfig(), classifier_);
  auto solo = isolated.OpenSession("solo", SceneSession());
  ASSERT_TRUE(solo.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*solo)->PushFrame(frame).ok());
  }
  (void)(*solo)->Drain();
  EXPECT_EQ((*a)->db().rows(), (*solo)->db().rows());
}

TEST_F(RuntimeTest, AdmissionControlCapsSessionCount) {
  RuntimeConfig config = SmallConfig();
  config.max_sessions = 2;
  Runtime runtime(config, classifier_);

  auto a = runtime.OpenSession("a", SceneSession());
  auto b = runtime.OpenSession("b", SceneSession());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = runtime.OpenSession("c", SceneSession());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), ErrorCode::kResourceExhausted);

  // Closing a session frees its slot.
  (void)(*a)->Drain();
  auto reopened = runtime.OpenSession("c", SceneSession());
  EXPECT_TRUE(reopened.ok());
}

TEST_F(RuntimeTest, AdmissionControlCapsAggregatePixelRate) {
  RuntimeConfig config = SmallConfig();
  // Budget for exactly one 64x48@30 camera (92160 px/s) plus slack.
  config.max_aggregate_pixel_rate = 64 * 48 * 30.0 * 1.5;
  Runtime runtime(config, classifier_);

  auto a = runtime.OpenSession("a", SceneSession());
  ASSERT_TRUE(a.ok());
  auto b = runtime.OpenSession("b", SceneSession());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kResourceExhausted);

  // A lighter camera still fits under the remaining budget.
  SessionConfig light = SceneSession();
  light.fps = 10.0;
  EXPECT_TRUE(runtime.OpenSession("light", light).ok());
}

TEST_F(RuntimeTest, PerSessionPlacementsProduceIdenticalResults) {
  // One runtime, three cameras, three different plans: placement is a
  // deployment choice, never a semantic one. All three dbs must agree with
  // each other (identical feed + bit-identical split execution).
  Runtime runtime(SmallConfig(), classifier_);

  SessionConfig edge_cfg = SceneSession();
  edge_cfg.placement = PlacementMode::kEdge;
  SessionConfig cloud_cfg = SceneSession();
  cloud_cfg.placement = PlacementMode::kCloud;
  SessionConfig auto_cfg = SceneSession();
  auto_cfg.placement = PlacementMode::kAuto;

  auto edge = runtime.OpenSession("edge-cam", edge_cfg);
  auto cloud = runtime.OpenSession("cloud-cam", cloud_cfg);
  auto autos = runtime.OpenSession("auto-cam", auto_cfg);
  ASSERT_TRUE(edge.ok());
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(autos.ok());

  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*edge)->PushFrame(frame).ok());
    ASSERT_TRUE((*cloud)->PushFrame(frame).ok());
    ASSERT_TRUE((*autos)->PushFrame(frame).ok());
  }
  const SessionReport edge_report = (*edge)->Drain();
  const SessionReport cloud_report = (*cloud)->Drain();
  const SessionReport auto_report = (*autos)->Drain();

  const std::size_t layers = classifier_->network().LayerCount();
  EXPECT_EQ(edge_report.placement, PlacementMode::kEdge);
  EXPECT_EQ(edge_report.nn_split, layers);
  EXPECT_EQ(cloud_report.placement, PlacementMode::kCloud);
  EXPECT_EQ(cloud_report.nn_split, 0u);
  EXPECT_EQ(auto_report.placement, PlacementMode::kAuto);
  EXPECT_LE(auto_report.nn_split, layers);

  // All-edge execution ships nothing over the WAN; all-cloud ships stills.
  EXPECT_EQ(edge_report.edge_to_cloud_bytes, 0u);
  EXPECT_GT(cloud_report.edge_to_cloud_bytes, 0u);

  EXPECT_GT((*edge)->db().size(), 0u);
  EXPECT_EQ((*edge)->db().rows(), (*cloud)->db().rows());
  EXPECT_EQ((*edge)->db().rows(), (*autos)->db().rows());
}

TEST_F(RuntimeTest, WanHintDrivesAutoPlacement) {
  // A session behind a dead uplink: the planner must keep everything at the
  // edge, and nothing may cross the WAN.
  SessionConfig cfg = SceneSession();
  cfg.placement = PlacementMode::kAuto;
  cfg.wan_hint = net::LinkModel{0.01, 2000.0};
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("weak-uplink", cfg);
  ASSERT_TRUE(session.ok());
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*session)->PushFrame(scene_->video.frames[i]).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.nn_split, classifier_->network().LayerCount());
  EXPECT_EQ(report.edge_to_cloud_bytes, 0u);
}

TEST_F(RuntimeTest, FixedSplitShipsActivationsAndMatchesCloudResults) {
  // Pin an intermediate cut: the edge runs the prefix and the serialized
  // activation crosses the WAN with an exactly predictable byte count
  // (iframes * (16-byte header + activation payload)).
  const auto profile = classifier_->network().Profile();
  const std::size_t split = 2;  // after conv1+bn: a real mid-network tensor
  ASSERT_LT(split, profile.size());

  SessionConfig cfg = SceneSession();
  cfg.placement = PlacementMode::kFixed;
  cfg.fixed_split = split;
  Runtime runtime(SmallConfig(), classifier_);
  auto session = runtime.OpenSession("split-cam", cfg);
  ASSERT_TRUE(session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*session)->PushFrame(frame).ok());
  }
  const SessionReport report = (*session)->Drain();
  EXPECT_EQ(report.placement, PlacementMode::kFixed);
  EXPECT_EQ(report.nn_split, split);
  EXPECT_GT(report.iframes_selected, 0u);
  EXPECT_EQ(report.edge_to_cloud_bytes,
            report.iframes_selected * (16 + profile[split - 1].output_bytes));

  // Same feed through a default all-cloud runtime: identical labels.
  Runtime cloud_runtime(SmallConfig(), classifier_);
  auto cloud = cloud_runtime.OpenSession("cloud-cam", SceneSession());
  ASSERT_TRUE(cloud.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*cloud)->PushFrame(frame).ok());
  }
  (void)(*cloud)->Drain();
  EXPECT_EQ((*session)->db().rows(), (*cloud)->db().rows());
}

TEST_F(RuntimeTest, ParallelEdgeNnPreservesPerCameraOrder) {
  // The edge-NN tier scaled to 4 ordered workers, with all-edge placement
  // so the whole forward pass runs in that stage. Per-camera result order
  // is observed through the query layer's standing subscriptions (events
  // fire in database-insert order), and the databases must match a serial
  // edge-NN runtime exactly.
  const synth::SyntheticVideo other = SmallScene(23);
  auto run = [&](int parallelism) {
    RuntimeConfig config = SmallConfig();
    config.edge_nn_parallelism = parallelism;
    config.default_placement = PlacementMode::kEdge;
    Runtime runtime(config, classifier_);

    std::mutex mutex;
    std::map<std::string, std::vector<std::size_t>> event_frames;
    for (int c = 0; c < synth::kNumObjectClasses; ++c) {
      runtime.query().Subscribe(
          synth::ObjectClass(c), [&](const query::QueryEvent& e) {
            std::lock_guard<std::mutex> lock(mutex);
            event_frames[e.camera_id].push_back(e.frame);
          });
    }

    auto a = runtime.OpenSession("cam-a", SceneSession());
    auto b = runtime.OpenSession("cam-b", SceneSession());
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    std::thread ta([&] {
      for (const auto& frame : scene_->video.frames) {
        ASSERT_TRUE((*a)->PushFrame(frame).ok());
      }
    });
    std::thread tb([&] {
      for (const auto& frame : other.video.frames) {
        ASSERT_TRUE((*b)->PushFrame(frame).ok());
      }
    });
    ta.join();
    tb.join();
    (void)(*a)->Drain();
    (void)(*b)->Drain();
    return std::tuple((*a)->db().rows(), (*b)->db().rows(), event_frames);
  };

  const auto [a4, b4, events4] = run(4);
  for (const auto& [camera, frames] : events4) {
    EXPECT_TRUE(std::is_sorted(frames.begin(), frames.end()))
        << "events of " << camera << " arrived out of frame order";
  }
  const auto [a1, b1, events1] = run(1);
  EXPECT_EQ(a4, a1);
  EXPECT_EQ(b4, b1);
  EXPECT_EQ(events4, events1);  // same transitions, same order, per camera
}

TEST_F(RuntimeTest, ParallelTranscodePreservesResults) {
  // The still-transcode tier scaled to 4 ordered workers must produce the
  // same per-camera database as the serial tier.
  RuntimeConfig parallel_config = SmallConfig();
  parallel_config.transcode_parallelism = 4;
  Runtime parallel_runtime(parallel_config, classifier_);
  auto parallel_session = parallel_runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(parallel_session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*parallel_session)->PushFrame(frame).ok());
  }
  const SessionReport parallel_report = (*parallel_session)->Drain();

  Runtime serial_runtime(SmallConfig(), classifier_);
  auto serial_session = serial_runtime.OpenSession("cam", SceneSession());
  ASSERT_TRUE(serial_session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*serial_session)->PushFrame(frame).ok());
  }
  const SessionReport serial_report = (*serial_session)->Drain();

  EXPECT_EQ(parallel_report.labels_written, serial_report.labels_written);
  EXPECT_EQ((*parallel_session)->db().rows(), (*serial_session)->db().rows());
}

TEST_F(RuntimeTest, Int8SessionsAgreeAcrossPlacements) {
  // Precision is a per-session deployment mode, orthogonal to placement.
  // Four int8 cameras — all-edge, all-cloud, a pinned intermediate split,
  // and planner-chosen — see the same feed, so the int8 split-invariance
  // contract (prefix+suffix == fused, bit-identical) makes all four
  // databases identical. The kAuto session additionally exercises the
  // precision-keyed planner cache: its split comes from int8 layer timings.
  Runtime runtime(SmallConfig(), classifier_);

  const std::vector<std::pair<std::string, PlacementMode>> cams = {
      {"i8-edge", PlacementMode::kEdge},
      {"i8-cloud", PlacementMode::kCloud},
      {"i8-fixed", PlacementMode::kFixed},
      {"i8-auto", PlacementMode::kAuto}};
  std::vector<std::unique_ptr<SieveSession>> sessions;
  for (const auto& [id, mode] : cams) {
    SessionConfig cfg = SceneSession();
    cfg.precision = nn::Precision::kInt8;
    cfg.placement = mode;
    cfg.fixed_split = 2;
    auto session = runtime.OpenSession(id, cfg);
    ASSERT_TRUE(session.ok()) << id;
    sessions.push_back(std::move(*session));
  }
  for (const auto& frame : scene_->video.frames) {
    for (auto& session : sessions) {
      ASSERT_TRUE(session->PushFrame(frame).ok());
    }
  }
  std::vector<SessionReport> reports;
  for (auto& session : sessions) reports.push_back(session->Drain());

  for (const auto& report : reports) {
    EXPECT_EQ(report.precision, nn::Precision::kInt8) << report.camera_id;
    EXPECT_GT(report.labels_written, 0u) << report.camera_id;
  }
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    EXPECT_EQ(sessions[0]->db().rows(), sessions[i]->db().rows())
        << cams[i].first << ": int8 results must not depend on placement";
  }
}

TEST_F(RuntimeTest, CloudLabelsMatchAnOutOfRuntimeReference) {
  // Every cloud frame rides the fleet batcher, so the runtime has no second
  // cloud path to check it against. The reference here is built from the
  // library pieces alone: encode, transcode the I-frames exactly as the
  // edge does, then run the split forward and the centroid match frame by
  // frame. Two cameras share the runtime so batches can hold several.
  const SessionConfig session_cfg = SceneSession();
  const RuntimeConfig base = SmallConfig();
  codec::StreamingEncoder encoder(session_cfg.encoder, session_cfg.width,
                                  session_cfg.height, session_cfg.fps);
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE(encoder.PushFrame(frame).ok());
  }
  const codec::EncodedVideo encoded = encoder.Finish();
  std::vector<std::pair<std::size_t, nn::Tensor>> inputs;  // (frame, input)
  for (const codec::FrameRecord& record : encoded.records) {
    if (record.type != codec::FrameType::kIntra) continue;
    auto decoded = codec::DecodeIntraFrameAt(encoded.bytes, record);
    ASSERT_TRUE(decoded.ok());
    auto still = codec::DecodeStill(codec::EncodeStill(
        media::ResizeFrame(*decoded, base.nn_input_size, base.nn_input_size),
        base.still_qp));
    ASSERT_TRUE(still.ok());
    inputs.emplace_back(record.index, classifier_->InputTensor(*still));
  }
  ASSERT_FALSE(inputs.empty());

  const nn::Network& net = classifier_->network();
  for (const std::size_t split : {std::size_t{0}, net.LayerCount() / 2}) {
    for (const nn::Precision precision :
         {nn::Precision::kFp32, nn::Precision::kInt8}) {
      std::map<std::size_t, synth::LabelSet> expected;
      for (const auto& [frame, input] : inputs) {
        auto labels = classifier_->PredictFromEmbedding(
            net.ForwardSuffix(net.ForwardPrefix(input, split, precision),
                              split, precision)
                .values());
        ASSERT_TRUE(labels.ok());
        expected[frame] = *labels;
      }
      for (const std::size_t batch_max : {std::size_t{1}, std::size_t{16}}) {
        SCOPED_TRACE("split " + std::to_string(split) + ", " +
                     nn::PrecisionName(precision) + ", batch_max " +
                     std::to_string(batch_max));
        RuntimeConfig config = base;
        config.cloud_batch_max = batch_max;
        Runtime runtime(config, classifier_);
        SessionConfig cfg = session_cfg;
        cfg.placement = PlacementMode::kFixed;
        cfg.fixed_split = split;
        cfg.precision = precision;
        std::vector<std::unique_ptr<SieveSession>> sessions;
        for (const char* id : {"cam-a", "cam-b"}) {
          auto session = runtime.OpenSession(id, cfg);
          ASSERT_TRUE(session.ok());
          sessions.push_back(std::move(*session));
        }
        for (const auto& frame : scene_->video.frames) {
          for (auto& session : sessions) {
            ASSERT_TRUE(session->PushFrame(frame).ok());
          }
        }
        for (auto& session : sessions) {
          const SessionReport report = session->Drain();
          EXPECT_EQ(report.nn_split, split);
          EXPECT_EQ(report.frames_delivered, inputs.size());
          EXPECT_EQ(report.cloud_batched_frames, report.frames_delivered)
              << "a cloud frame bypassed the batcher";
          EXPECT_EQ(session->db().rows(), expected);
        }
      }
    }
  }
}

TEST_F(RuntimeTest, Int8SessionsRideTheirOwnBatches) {
  // Batched cloud serving at mixed precisions: the fleet batcher keys
  // batches by (split, precision), so an int8 camera's frames ride int8
  // passes and its database matches an int8 session at size-1 flushes.
  RuntimeConfig batched_config = SmallConfig();
  batched_config.cloud_batch_max = 4;
  Runtime runtime(batched_config, classifier_);

  SessionConfig int8_cfg = SceneSession();
  int8_cfg.precision = nn::Precision::kInt8;
  auto int8_session = runtime.OpenSession("i8-batched", int8_cfg);
  auto fp32_session = runtime.OpenSession("fp32-batched", SceneSession());
  ASSERT_TRUE(int8_session.ok());
  ASSERT_TRUE(fp32_session.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*int8_session)->PushFrame(frame).ok());
    ASSERT_TRUE((*fp32_session)->PushFrame(frame).ok());
  }
  const SessionReport int8_report = (*int8_session)->Drain();
  (void)(*fp32_session)->Drain();
  EXPECT_EQ(int8_report.precision, nn::Precision::kInt8);
  EXPECT_GT(int8_report.cloud_batched_frames, 0u);

  // Reference: the same int8 feed at size-1 flushes.
  Runtime plain_runtime(SmallConfig(), classifier_);
  auto plain = plain_runtime.OpenSession("i8-plain", int8_cfg);
  ASSERT_TRUE(plain.ok());
  for (const auto& frame : scene_->video.frames) {
    ASSERT_TRUE((*plain)->PushFrame(frame).ok());
  }
  (void)(*plain)->Drain();
  EXPECT_EQ((*int8_session)->db().rows(), (*plain)->db().rows())
      << "batched int8 results diverged from size-1 int8 flushes";
}

}  // namespace
}  // namespace sieve::runtime
