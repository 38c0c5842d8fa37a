// The live 3-tier pipeline (Figure 1) on real threads: camera streams a
// semantically encoded video, the edge seeks I-frames and transcodes them to
// stills, a rate-modelled WAN carries them to the cloud, the cloud runs the
// NN and fills the results database. Compares cloud-NN vs edge-NN tiers.
//
// Run:  ./edge_cloud_pipeline
#include <cstdio>
#include <span>

#include "codec/encoder.h"
#include "core/tuner.h"
#include "nn/classifier.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace {

using namespace sieve;

/// Stream the pre-encoded video through a one-camera Runtime whose classifier
/// runs where `placement` says, and print what every tier did.
bool RunPlacement(const char* label, runtime::PlacementMode placement,
                  double link_time_scale, const codec::EncodedVideo& video,
                  const nn::FrameClassifier& classifier) {
  runtime::RuntimeConfig config;
  config.default_placement = placement;
  config.nn_input_size = 64;
  config.link_time_scale = link_time_scale;
  runtime::Runtime runtime(config, &classifier);

  runtime::SessionConfig camera;
  camera.width = video.header.width;
  camera.height = video.header.height;
  camera.fps = video.header.fps;
  camera.encoder.qp = video.header.qp;  // edge decode context
  auto session = runtime.OpenSession("camera", camera);
  if (!session.ok()) return false;
  const std::span<const std::uint8_t> bytes(video.bytes);
  for (const codec::FrameRecord& record : video.records) {
    // The frame's bytes as they cross camera->edge (header + payload).
    const Status pushed = (*session)->PushEncoded(
        record.type, record.index,
        bytes.subspan(record.payload_offset - codec::FrameRecord::kHeaderSize,
                      codec::FrameRecord::kHeaderSize + record.payload_size));
    if (!pushed.ok()) return false;
  }
  const runtime::SessionReport r = (*session)->Drain();
  auto stages = runtime.Shutdown();
  if (!stages.ok()) return false;

  std::printf("\n[%s]\n", label);
  std::printf("  streamed %zu frames, selected %zu I-frames, wrote %zu labels "
              "in %.2fs (%.0f fps)\n",
              r.frames_pushed, r.iframes_selected, r.labels_written,
              r.wall_seconds, r.fps);
  std::printf("  camera->edge %.2f MB, edge->cloud %.3f MB\n",
              double(r.camera_to_edge_bytes) / 1e6,
              double(r.edge_to_cloud_bytes) / 1e6);
  for (const auto& s : *stages) {
    std::printf("  stage %-22s in=%-5zu out=%-5zu busy=%.3fs peakq=%zu\n",
                s.name.c_str(), s.in, s.out, s.busy_seconds, s.peak_queue);
  }
  std::printf("  results db rows: %zu\n", (*session)->db().size());
  return true;
}

}  // namespace

int main() {
  synth::SceneConfig config;
  config.width = 192;
  config.height = 144;
  config.num_frames = 450;
  config.seed = 77;
  config.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kPerson};
  config.mean_gap_seconds = 2.0;
  config.min_gap_seconds = 1.0;
  config.mean_dwell_seconds = 2.5;

  std::printf("rendering feed and calibrating...\n");
  const synth::SyntheticVideo history = synth::GenerateScene(config);
  config.seed += 1;
  const synth::SyntheticVideo live = synth::GenerateScene(config);

  const core::TuningResult tuned = core::TuneEncoder(
      history.video, history.truth, core::TunerGrid::Extended());
  codec::EncoderParams params;
  params.keyframe.gop_size = tuned.best.gop_size;
  params.keyframe.scenecut = tuned.best.scenecut;
  auto encoded = codec::VideoEncoder(params).Encode(live.video);
  if (!encoded.ok()) return 1;

  nn::ClassifierParams cp;
  cp.input_size = 64;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(history.video.frames, history.truth, 4).ok()) return 1;

  // Placement 1: I-frame seeking at the edge, NN at the cloud, 30 Mbps WAN.
  // Modelled link time is compressed 20x for the demo.
  if (!RunPlacement("I-frame edge + cloud NN (30 Mbps WAN)",
                    runtime::PlacementMode::kCloud, 0.05, *encoded,
                    classifier)) {
    return 1;
  }
  // Placement 3: everything at the edge; nothing crosses the WAN.
  if (!RunPlacement("I-frame edge + edge NN (no WAN)",
                    runtime::PlacementMode::kEdge, 0.0, *encoded, classifier)) {
    return 1;
  }
  return 0;
}
