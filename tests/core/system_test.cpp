// The single-camera end-to-end path on a one-session Runtime: a
// pre-encoded feed streams camera -> edge -> cloud, and the session's
// report, stage stats and database describe the run.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "codec/encoder.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

class SystemTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::SceneConfig c;
    c.width = 128;
    c.height = 96;
    c.num_frames = 150;
    c.seed = 71;
    c.mean_gap_seconds = 1.2;
    c.min_gap_seconds = 0.6;
    c.mean_dwell_seconds = 1.5;
    c.min_dwell_seconds = 0.8;
    scene_ = new synth::SyntheticVideo(synth::GenerateScene(c));

    nn::ClassifierParams cp;
    cp.input_size = 48;
    cp.embedding_dim = 32;
    classifier_ = new nn::FrameClassifier(cp);
    ASSERT_TRUE(classifier_->Fit(scene_->video.frames, scene_->truth, 5).ok());

    codec::EncoderParams params = codec::EncoderParams::Semantic(100000, 280);
    auto encoded = codec::VideoEncoder(params).Encode(scene_->video);
    ASSERT_TRUE(encoded.ok());
    encoded_ = new codec::EncodedVideo(std::move(*encoded));
  }
  static void TearDownTestSuite() {
    delete scene_;
    delete classifier_;
    delete encoded_;
  }

  static SessionConfig CameraConfig() {
    SessionConfig camera;
    camera.width = encoded_->header.width;
    camera.height = encoded_->header.height;
    camera.fps = encoded_->header.fps;
    camera.encoder.qp = encoded_->header.qp;  // edge decode context
    return camera;
  }

  struct Run {
    std::unique_ptr<SieveSession> session;  ///< drained; db() stays valid
    SessionReport report;
    std::vector<dataflow::StageStats> stages;
  };

  /// Stream the encoded feed through a one-camera Runtime whose classifier
  /// runs where `placement` says.
  static Run StreamFeed(PlacementMode placement) {
    RuntimeConfig config;
    config.default_placement = placement;
    config.nn_input_size = 48;
    Runtime runtime(config, classifier_);
    auto session = runtime.OpenSession("camera", CameraConfig());
    EXPECT_TRUE(session.ok());
    Run run;
    if (!session.ok()) return run;
    const std::span<const std::uint8_t> bytes(encoded_->bytes);
    for (const codec::FrameRecord& record : encoded_->records) {
      EXPECT_TRUE((*session)
                      ->PushEncoded(
                          record.type, record.index,
                          bytes.subspan(record.payload_offset -
                                            codec::FrameRecord::kHeaderSize,
                                        codec::FrameRecord::kHeaderSize +
                                            record.payload_size))
                      .ok());
    }
    run.report = (*session)->Drain();
    auto stages = runtime.Shutdown();
    EXPECT_TRUE(stages.ok());
    if (stages.ok()) run.stages = std::move(*stages);
    run.session = std::move(*session);
    return run;
  }

  static synth::SyntheticVideo* scene_;
  static nn::FrameClassifier* classifier_;
  static codec::EncodedVideo* encoded_;
};

synth::SyntheticVideo* SystemTest::scene_ = nullptr;
nn::FrameClassifier* SystemTest::classifier_ = nullptr;
codec::EncodedVideo* SystemTest::encoded_ = nullptr;

TEST_F(SystemTest, RequiresFittedClassifier) {
  nn::FrameClassifier unfitted;
  Runtime runtime(RuntimeConfig{}, &unfitted);
  EXPECT_FALSE(runtime.OpenSession("camera", CameraConfig()).ok());
}

TEST_F(SystemTest, CloudRunProcessesOnlyIFrames) {
  const Run run = StreamFeed(PlacementMode::kCloud);
  ASSERT_NE(run.session, nullptr);
  EXPECT_EQ(run.report.frames_pushed, encoded_->records.size());
  EXPECT_EQ(run.report.iframes_selected, encoded_->IntraFrameCount());
  EXPECT_EQ(run.report.labels_written, run.report.iframes_selected);
  EXPECT_EQ(run.session->db().size(), run.report.iframes_selected);
}

TEST_F(SystemTest, BytesAccountedOnBothHops) {
  const Run run = StreamFeed(PlacementMode::kCloud);
  ASSERT_NE(run.session, nullptr);
  // Camera->edge carries every frame (payload + header bytes).
  std::size_t expected_c2e = 0;
  for (const auto& r : encoded_->records) {
    expected_c2e += r.payload_size + codec::FrameRecord::kHeaderSize;
  }
  EXPECT_EQ(run.report.camera_to_edge_bytes, expected_c2e);
  // Edge->cloud only carries resized stills of I-frames: far smaller.
  EXPECT_GT(run.report.edge_to_cloud_bytes, 0u);
  EXPECT_LT(run.report.edge_to_cloud_bytes,
            run.report.camera_to_edge_bytes / 3);
}

TEST_F(SystemTest, EdgeNnSendsNothingToCloud) {
  const Run run = StreamFeed(PlacementMode::kEdge);
  ASSERT_NE(run.session, nullptr);
  EXPECT_EQ(run.report.edge_to_cloud_bytes, 0u);
  EXPECT_EQ(run.report.labels_written, encoded_->IntraFrameCount());
}

TEST_F(SystemTest, PropagatedLabelsAreMostlyCorrect) {
  const Run run = StreamFeed(PlacementMode::kCloud);
  ASSERT_NE(run.session, nullptr);
  const core::ResultsDatabase& db = run.session->db();
  std::size_t correct = 0;
  for (std::size_t f = 0; f < scene_->truth.frame_count(); ++f) {
    if (db.LabelAt(f) == scene_->truth.label(f)) ++correct;
  }
  const double accuracy = double(correct) / double(scene_->truth.frame_count());
  EXPECT_GT(accuracy, 0.7)
      << "end-to-end propagated per-frame accuracy through the real pipeline";
}

TEST_F(SystemTest, StageStatsCoverPipeline) {
  const Run run = StreamFeed(PlacementMode::kCloud);
  // camera, seeker, transcode, edge-nn, wan, cloud-nn, cloud-sink
  ASSERT_EQ(run.stages.size(), 7u);
  EXPECT_EQ(run.stages[0].out, encoded_->records.size());
  EXPECT_EQ(run.stages[1].in, encoded_->records.size());
  EXPECT_EQ(run.stages[1].out, encoded_->IntraFrameCount());
}

}  // namespace
}  // namespace sieve::runtime
