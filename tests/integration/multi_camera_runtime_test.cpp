// The Figure-1 fleet contract: N live cameras streaming concurrently
// through ONE shared Runtime (one executor, one edge chain, one classifier)
// must produce, per camera, exactly the results that camera would get from
// its own isolated one-session Runtime. Sharing the tiers is a deployment
// choice, never a semantic one.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <thread>
#include <vector>

#include "codec/encoder.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace sieve {
namespace {

constexpr int kCameras = 3;
constexpr int kWidth = 128;
constexpr int kHeight = 96;
constexpr std::size_t kFrames = 60;

synth::SyntheticVideo CameraScene(int camera) {
  synth::SceneConfig c;
  c.width = kWidth;
  c.height = kHeight;
  c.num_frames = kFrames;
  c.seed = 1000 + std::uint64_t(camera) * 77;
  c.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kBoat};
  c.object_scale = 0.25 + 0.05 * camera;  // heterogeneous feeds
  c.mean_gap_seconds = 0.8;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 1.2;
  c.min_dwell_seconds = 0.5;
  return synth::GenerateScene(c);
}

codec::EncoderParams CameraParams() {
  return codec::EncoderParams::Semantic(12, 150);
}

TEST(MultiCameraRuntime, SharedRuntimeMatchesIsolatedSystems) {
  std::vector<synth::SyntheticVideo> scenes;
  scenes.reserve(kCameras);
  for (int cam = 0; cam < kCameras; ++cam) scenes.push_back(CameraScene(cam));

  nn::ClassifierParams cp;
  cp.input_size = 48;
  cp.embedding_dim = 32;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(scenes[0].video.frames, scenes[0].truth, 5).ok());

  // --- Reference: three isolated one-session runtimes, each replaying its
  // camera's batch-encoded feed ---------------------------------------------
  std::vector<std::map<std::size_t, synth::LabelSet>> isolated(kCameras);
  std::vector<std::size_t> isolated_iframes(kCameras);
  std::vector<std::uint64_t> isolated_c2e(kCameras);
  for (int cam = 0; cam < kCameras; ++cam) {
    auto encoded = codec::VideoEncoder(CameraParams()).Encode(scenes[cam].video);
    ASSERT_TRUE(encoded.ok());
    runtime::RuntimeConfig config;
    config.nn_input_size = 48;
    runtime::Runtime alone(config, &classifier);
    runtime::SessionConfig sc;
    sc.width = encoded->header.width;
    sc.height = encoded->header.height;
    sc.fps = encoded->header.fps;
    sc.encoder.qp = encoded->header.qp;  // edge decode context
    auto session = alone.OpenSession("camera-" + std::to_string(cam), sc);
    ASSERT_TRUE(session.ok());
    const std::span<const std::uint8_t> bytes(encoded->bytes);
    for (const codec::FrameRecord& record : encoded->records) {
      ASSERT_TRUE((*session)
                      ->PushEncoded(
                          record.type, record.index,
                          bytes.subspan(record.payload_offset -
                                            codec::FrameRecord::kHeaderSize,
                                        codec::FrameRecord::kHeaderSize +
                                            record.payload_size))
                      .ok());
    }
    const runtime::SessionReport report = (*session)->Drain();
    ASSERT_TRUE(alone.Shutdown().ok());
    isolated[std::size_t(cam)] = (*session)->db().rows();
    isolated_iframes[std::size_t(cam)] = report.iframes_selected;
    isolated_c2e[std::size_t(cam)] = report.camera_to_edge_bytes;
    ASSERT_GT(report.labels_written, 0u);
  }

  // --- One shared runtime, three concurrent live sessions -----------------
  runtime::RuntimeConfig runtime_config;
  runtime_config.nn_input_size = 48;
  runtime::Runtime runtime(runtime_config, &classifier);

  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  for (int cam = 0; cam < kCameras; ++cam) {
    runtime::SessionConfig sc;
    sc.width = kWidth;
    sc.height = kHeight;
    sc.encoder = CameraParams();
    auto session = runtime.OpenSession("camera-" + std::to_string(cam), sc);
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(*session));
  }
  std::vector<std::thread> feeds;
  for (int cam = 0; cam < kCameras; ++cam) {
    feeds.emplace_back([cam, &sessions, &scenes] {
      for (const auto& frame : scenes[std::size_t(cam)].video.frames) {
        ASSERT_TRUE(sessions[std::size_t(cam)]->PushFrame(frame).ok());
      }
    });
  }
  for (auto& t : feeds) t.join();

  for (int cam = 0; cam < kCameras; ++cam) {
    const runtime::SessionReport report = sessions[std::size_t(cam)]->Drain();
    EXPECT_EQ(report.frames_pushed, kFrames);
    // The live session's encoder (shared executor) makes the same keyframe
    // decisions, streams the same bytes, and the shared tiers label them
    // identically to the isolated run.
    EXPECT_EQ(report.iframes_selected, isolated_iframes[std::size_t(cam)])
        << "camera " << cam;
    EXPECT_EQ(report.camera_to_edge_bytes, isolated_c2e[std::size_t(cam)])
        << "camera " << cam;
    EXPECT_EQ(sessions[std::size_t(cam)]->db().rows(),
              isolated[std::size_t(cam)])
        << "camera " << cam << ": per-camera results must not change when "
        << "the tiers are shared";
  }

  auto stats = runtime.Shutdown();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), std::size_t(kCameras) + 6);  // sources + 5 stages + sink
  std::size_t fan_in = 0;
  for (int cam = 0; cam < kCameras; ++cam) fan_in += (*stats)[std::size_t(cam)].out;
  EXPECT_EQ(fan_in, std::size_t(kCameras) * kFrames);
  EXPECT_EQ((*stats)[kCameras].in, fan_in) << "seeker consumes the merged feed";
}

}  // namespace
}  // namespace sieve
