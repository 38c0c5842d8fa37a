// Full-system integration tests: offline tuning -> semantic encoding ->
// seeking -> classification -> results, plus cross-detector comparisons.
#include <gtest/gtest.h>

#include <span>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/detectors.h"
#include "core/metrics.h"
#include "core/seeker.h"
#include "core/tuner.h"
#include "runtime/runtime.h"
#include "synth/datasets.h"
#include "vision/similarity.h"

namespace sieve {
namespace {

/// A downscaled Jackson-square-like feed (train + test halves).
struct Feed {
  synth::SyntheticVideo train;
  synth::SyntheticVideo test;
};

Feed MakeFeed(std::uint64_t seed) {
  synth::SceneConfig c;
  c.width = 192;
  c.height = 144;
  c.num_frames = 360;
  c.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kTruck};
  c.object_scale = 0.30;
  c.mean_gap_seconds = 2.0;
  c.min_gap_seconds = 1.0;
  c.mean_dwell_seconds = 2.0;
  c.min_dwell_seconds = 1.0;
  c.noise_sigma = 1.2;
  Feed feed;
  c.seed = seed;
  feed.train = synth::GenerateScene(c);
  c.seed = seed + 1000;  // different future traffic, same camera geometry
  feed.test = synth::GenerateScene(c);
  return feed;
}

TEST(EndToEnd, OfflineTuneOnlineDetect) {
  const Feed feed = MakeFeed(81);

  // 1. Offline: tune on labelled history (Section IV).
  const core::TuningResult tuned = core::TuneEncoder(
      feed.train.video, feed.train.truth, core::TunerGrid::Extended());
  EXPECT_GT(tuned.best.quality.f1, 0.8) << "training-set tuning quality";

  // 2. Store in the camera lookup table.
  core::CameraParameterTable table;
  codec::KeyframeParams params;
  params.gop_size = tuned.best.gop_size;
  params.scenecut = tuned.best.scenecut;
  table.Set("camera-1", params);

  // 3. Online: semantically encode *future* video with the stored params.
  codec::EncoderParams enc_params;
  enc_params.keyframe = *table.Get("camera-1");
  auto encoded = codec::VideoEncoder(enc_params).Encode(feed.test.video);
  ASSERT_TRUE(encoded.ok());

  // 4. Seek I-frames without decoding; evaluate propagated accuracy.
  auto report = core::SeekIFrames(encoded->bytes);
  ASSERT_TRUE(report.ok());
  const auto quality =
      core::EvaluateSelection(feed.test.truth, core::SelectedIndices(*report));
  EXPECT_GT(quality.accuracy, 0.85)
      << "tuned parameters must generalize to unseen traffic";
  EXPECT_LT(quality.sample_rate, 0.25);
}

TEST(EndToEnd, SieveVsBaselinesAtMatchedSampling) {
  // The Figure-3 protocol at one operating point, end to end.
  const Feed feed = MakeFeed(82);
  const auto costs = codec::AnalyzeVideo(feed.test.video);

  const core::Selection sieve =
      core::SelectSieve(costs, codec::KeyframeParams{100000, 280, 2});
  ASSERT_GE(sieve.frames.size(), 3u);

  const auto mse_signal = vision::MseChangeSignal(feed.test.video.frames);
  const core::Selection mse = core::SelectBySignal(
      core::DetectorKind::kMse, mse_signal, sieve.frames.size());
  const core::Selection uniform =
      core::SelectUniform(feed.test.video.frames.size(), sieve.frames.size());

  const double acc_sieve =
      core::EvaluateSelection(feed.test.truth, sieve.frames).accuracy;
  const double acc_mse =
      core::EvaluateSelection(feed.test.truth, mse.frames).accuracy;
  const double acc_uniform =
      core::EvaluateSelection(feed.test.truth, uniform.frames).accuracy;

  EXPECT_GE(acc_sieve, acc_mse - 0.02)
      << "SiEVE must be at least competitive with MSE at matched sampling";
  EXPECT_GT(acc_sieve, acc_uniform);
}

TEST(EndToEnd, FullThreeTierPipelineOnTunedStream) {
  const Feed feed = MakeFeed(83);

  // Tune, encode, fit classifier on training half.
  const core::TuningResult tuned = core::TuneEncoder(
      feed.train.video, feed.train.truth, core::TunerGrid::Extended());
  codec::EncoderParams params;
  params.keyframe.gop_size = tuned.best.gop_size;
  params.keyframe.scenecut = tuned.best.scenecut;
  auto encoded = codec::VideoEncoder(params).Encode(feed.test.video);
  ASSERT_TRUE(encoded.ok());

  nn::ClassifierParams cp;
  cp.input_size = 48;
  cp.embedding_dim = 32;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(feed.train.video.frames, feed.train.truth, 4).ok());

  // Stream the encoded feed through a one-camera runtime (NN at the cloud).
  runtime::RuntimeConfig config;
  config.nn_input_size = 48;
  runtime::Runtime runtime(config, &classifier);
  runtime::SessionConfig camera;
  camera.width = encoded->header.width;
  camera.height = encoded->header.height;
  camera.fps = encoded->header.fps;
  camera.encoder.qp = encoded->header.qp;  // edge decode context
  auto session = runtime.OpenSession("camera-1", camera);
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
  ASSERT_TRUE(runtime.Shutdown().ok());
  const core::ResultsDatabase& db = (*session)->db();

  // The pipeline processed only the I-frames...
  EXPECT_EQ(report.iframes_selected, encoded->IntraFrameCount());
  EXPECT_LT(report.iframes_selected, report.frames_pushed / 4);

  // ...and the queryable database labels most frames correctly.
  std::size_t correct = 0;
  for (std::size_t f = 0; f < feed.test.truth.frame_count(); ++f) {
    if (db.LabelAt(f) == feed.test.truth.label(f)) ++correct;
  }
  // Selection accuracy x classifier generalization; well above the ~0.45
  // no-detection baseline for this scene.
  EXPECT_GT(double(correct) / double(feed.test.truth.frame_count()), 0.55);
}

TEST(EndToEnd, SeekerConsistentWithFullDecoderOnAllDatasetStyles) {
  // Property over dataset presets: the seeker finds exactly the frames a
  // full decode labels as I-frames.
  for (const auto& spec : synth::AllDatasetSpecs()) {
    synth::SceneConfig c = synth::MakeDatasetConfig(spec.id, 60, 7);
    c.width = 160;  // downscale geometry for test speed
    c.height = 96;
    const auto scene = synth::GenerateScene(c);
    auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(20, 250))
                       .Encode(scene.video);
    ASSERT_TRUE(encoded.ok()) << spec.name;

    auto report = core::SeekIFrames(encoded->bytes);
    ASSERT_TRUE(report.ok()) << spec.name;

    auto decoder = codec::VideoDecoder::Open(encoded->bytes);
    ASSERT_TRUE(decoder.ok()) << spec.name;
    std::vector<std::size_t> decoder_iframes;
    for (const auto& record : decoder->records()) {
      if (record.type == codec::FrameType::kIntra) {
        decoder_iframes.push_back(record.index);
      }
    }
    EXPECT_EQ(core::SelectedIndices(*report), decoder_iframes) << spec.name;
  }
}

TEST(EndToEnd, HigherSamplingNeverHurtsAccuracy) {
  // Sweeping scenecut upward (more I-frames) must not reduce propagated
  // accuracy — the Figure 3 curves are non-decreasing in sampling rate.
  const Feed feed = MakeFeed(84);
  const auto costs = codec::AnalyzeVideo(feed.test.video);
  double prev_acc = -1.0;
  std::size_t prev_count = 0;
  for (int sc : {150, 250, 300, 350}) {
    const auto selection =
        core::SelectSieve(costs, codec::KeyframeParams{100000, sc, 2});
    const double acc =
        core::EvaluateSelection(feed.test.truth, selection.frames).accuracy;
    if (selection.frames.size() > prev_count) {
      EXPECT_GE(acc, prev_acc - 0.03)
          << "accuracy should broadly rise with sampling (sc=" << sc << ")";
    }
    prev_acc = std::max(prev_acc, acc);
    prev_count = selection.frames.size();
  }
}

}  // namespace
}  // namespace sieve
