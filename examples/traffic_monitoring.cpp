// Traffic monitoring: the paper's motivating scenario on the Jackson-square
// preset — tune per camera, semantically encode a day's traffic, classify
// I-frames with the reference NN, store results, and answer queries such as
// "when were buses in the square?" without decoding the archive.
//
// Run:  ./traffic_monitoring
#include <cstdio>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "core/seeker.h"
#include "core/results_db.h"
#include "core/tuner.h"
#include "nn/classifier.h"
#include "synth/datasets.h"

int main() {
  using namespace sieve;

  // The Jackson-square preset, downscaled for a fast demo.
  synth::SceneConfig config =
      synth::MakeDatasetConfig(synth::DatasetId::kJacksonSquare, 900, 11);
  config.width = 300;
  config.height = 200;
  config.mean_gap_seconds = 3.0;
  config.mean_dwell_seconds = 3.0;

  std::printf("rendering training + live footage (%dx%d)...\n", config.width,
              config.height);
  const synth::SyntheticVideo history = synth::GenerateScene(config);
  config.seed += 999;
  const synth::SyntheticVideo live = synth::GenerateScene(config);

  // Per-camera tuning, stored in the operator's lookup table (Figure 1).
  const core::TuningResult tuned = core::TuneEncoder(
      history.video, history.truth, core::TunerGrid::Extended());
  core::CameraParameterTable table;
  codec::KeyframeParams keyframe;
  keyframe.gop_size = tuned.best.gop_size;
  keyframe.scenecut = tuned.best.scenecut;
  table.Set("jackson/cam-01", keyframe);
  std::printf("camera table:\n%s", table.Serialize().c_str());

  // Reference NN calibrated on the labelled history.
  nn::ClassifierParams cp;
  cp.input_size = 64;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(history.video.frames, history.truth, 4).ok()) return 1;
  std::printf("classifier: %zu label-set centroids, history accuracy %.1f%%\n",
              classifier.centroid_count(),
              classifier.Evaluate(history.video.frames, history.truth, 10) * 100);

  // Live: encode with tuned params, seek, classify I-frames only.
  codec::EncoderParams params;
  params.keyframe = *table.Get("jackson/cam-01");
  auto encoded = codec::VideoEncoder(params).Encode(live.video);
  if (!encoded.ok()) return 1;

  auto report = core::SeekIFrames(encoded->bytes);
  if (!report.ok()) return 1;
  core::ResultsDatabase db;
  for (const auto& record : report->iframes) {
    auto frame = codec::DecodeIntraFrameAt(encoded->bytes, record);
    if (!frame.ok()) continue;
    auto labels = classifier.Predict(*frame);
    if (labels.ok()) db.Insert(record.index, *labels);
  }
  std::printf("analyzed %zu of %zu frames (%.2f%%)\n", db.size(),
              encoded->records.size(),
              100.0 * double(db.size()) / double(encoded->records.size()));

  // Queries against the results database.
  for (auto cls : {synth::ObjectClass::kCar, synth::ObjectClass::kBus,
                   synth::ObjectClass::kTruck}) {
    const auto ranges = db.FindObject(cls, encoded->records.size());
    std::printf("%-6s seen in %zu interval(s):", synth::ObjectClassName(cls),
                ranges.size());
    for (const auto& [a, b] : ranges) {
      std::printf(" [%.1fs..%.1fs]", double(a) / config.fps,
                  double(b) / config.fps);
    }
    std::printf("\n");
  }

  // Accuracy of the propagated per-frame labels vs ground truth.
  std::size_t correct = 0;
  for (std::size_t f = 0; f < live.truth.frame_count(); ++f) {
    if (db.LabelAt(f) == live.truth.label(f)) ++correct;
  }
  std::printf("propagated per-frame label accuracy: %.1f%%\n",
              100.0 * double(correct) / double(live.truth.frame_count()));
  return 0;
}
