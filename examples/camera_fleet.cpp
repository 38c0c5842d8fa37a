// Camera fleet: per-camera tuning across heterogeneous feeds (the reason
// Section IV tunes each camera separately), then the fleet deployed LIVE on
// the multi-camera session API: one runtime::Runtime hosts the shared
// edge/cloud tiers and the shared executor, and every tuned camera streams
// its frames through its own SieveSession concurrently — the Figure 1
// many-cameras -> one-edge -> one-cloud topology as running code.
//
// The final act scales past the tuned trio: `--cameras N` (default 16)
// spins up N synthetic sessions on one runtime with cross-session batched
// cloud inference enabled (docs/fleet.md), so many cameras' activations
// share each ForwardSuffix pass instead of paying it per frame.
//
// Run:  ./camera_fleet [--cameras N] [--trace-out trace.json]
//
// --trace-out records a Chrome trace of the live-fleet act (per-frame spans
// from encode through WAN to the db inserts) and dumps the runtime's metric
// registry next to it as <trace>.metrics.json (docs/observability.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "codec/analysis.h"
#include "codec/container.h"
#include "codec/encoder.h"
#include "core/metrics.h"
#include "core/tuner.h"
#include "nn/classifier.h"
#include "obs/export.h"
#include "runtime/runtime.h"
#include "synth/datasets.h"

int main(int argc, char** argv) {
  using namespace sieve;

  int fleet_cameras = 16;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cameras") == 0 && i + 1 < argc) {
      fleet_cameras = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::printf("usage: %s [--cameras N] [--trace-out trace.json]\n",
                  argv[0]);
      return 1;
    }
  }
  if (fleet_cameras < 1) fleet_cameras = 1;

  struct FleetCamera {
    std::string name;
    synth::SyntheticVideo scene;
    core::TuningResult tuned;
  };
  std::vector<FleetCamera> fleet;

  core::CameraParameterTable table;
  std::printf("%-16s %-10s %-8s %-8s %-8s %-8s\n", "camera", "tuned", "acc%",
              "SS%", "F1%", "events");

  // Every labelled preset plays the role of one camera in the fleet; the
  // close-up camera tunes to a low scenecut, the long-shot to a high one.
  for (auto id : {synth::DatasetId::kJacksonSquare, synth::DatasetId::kCoralReef,
                  synth::DatasetId::kVenice}) {
    const auto& spec = synth::GetDatasetSpec(id);
    synth::SceneConfig cfg = synth::MakeDatasetConfig(id, 1800, 21);
    const double s = 360.0 / cfg.width;
    if (s < 1.0) {
      cfg.width = (int(cfg.width * s) / 2) * 2;
      cfg.height = (int(cfg.height * s) / 2) * 2;
    }
    synth::SyntheticVideo scene = synth::GenerateScene(cfg);
    core::TuningResult tuned = core::TuneEncoder(scene.video, scene.truth,
                                                 core::TunerGrid::Extended());

    codec::KeyframeParams params;
    params.gop_size = tuned.best.gop_size;
    params.scenecut = tuned.best.scenecut;
    table.Set(spec.name, params);

    char tuned_str[32];
    std::snprintf(tuned_str, sizeof tuned_str, "%d/%d", tuned.best.gop_size,
                  tuned.best.scenecut);
    std::printf("%-16s %-10s %-8.1f %-8.2f %-8.1f %zu\n", spec.name.c_str(),
                tuned_str, tuned.best.quality.accuracy * 100,
                tuned.best.quality.sample_rate * 100,
                tuned.best.quality.f1 * 100, scene.truth.Events().size());
    fleet.push_back(FleetCamera{spec.name, std::move(scene), std::move(tuned)});
  }

  std::printf("\noperator lookup table (serialized):\n%s",
              table.Serialize().c_str());

  // Round-trip the table the way the operator software would persist it.
  auto restored = core::CameraParameterTable::Deserialize(table.Serialize());
  std::printf("round-trip: %s (%zu cameras)\n",
              restored.ok() ? "ok" : "FAILED", restored.ok() ? restored->size() : 0);
  if (!restored.ok()) return 1;

  // --- Deploy the tuned fleet on one shared runtime ------------------------
  // One classifier serves every camera (Predict is const-thread-safe); one
  // shared executor runs all three cameras' motion estimation; the edge and
  // cloud tiers are shared by the pipeline's multi-source fan-in.
  nn::ClassifierParams cp;
  cp.input_size = 48;
  cp.embedding_dim = 32;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(fleet[0].scene.video.frames, fleet[0].scene.truth, 10)
           .ok()) {
    std::printf("classifier fit FAILED\n");
    return 1;
  }

  runtime::RuntimeConfig runtime_config;
  runtime_config.nn_input_size = 48;
  if (!trace_out.empty()) {
    runtime_config.trace.enabled = true;
    runtime_config.trace.chrome_trace_path = trace_out;
    runtime_config.trace.metrics_path = trace_out + ".metrics.json";
  }
  runtime::Runtime rt(runtime_config, &classifier);

  static constexpr std::size_t kLiveFrames = 150;  // stream the first 5 seconds
  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  for (const FleetCamera& cam : fleet) {
    runtime::SessionConfig sc;
    sc.width = cam.scene.video.width;
    sc.height = cam.scene.video.height;
    sc.encoder = codec::EncoderParams::Semantic(cam.tuned.best.gop_size,
                                                cam.tuned.best.scenecut);
    auto session = rt.OpenSession(cam.name, sc);
    if (!session.ok()) {
      std::printf("OpenSession(%s) FAILED: %s\n", cam.name.c_str(),
                  session.status().ToString().c_str());
      return 1;
    }
    sessions.push_back(std::move(*session));
  }

  std::vector<std::thread> feeds;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    feeds.emplace_back([i, &fleet, &sessions] {
      const auto& frames = fleet[i].scene.video.frames;
      const std::size_t n = std::min(kLiveFrames, frames.size());
      for (std::size_t f = 0; f < n; ++f) {
        if (!sessions[i]->PushFrame(frames[f]).ok()) return;
      }
    });
  }
  for (auto& t : feeds) t.join();

  std::printf("\nlive fleet on one shared runtime (%zu workers):\n",
              rt.executor().concurrency());
  std::printf("%-16s %-8s %-8s %-8s %-10s %-12s\n", "camera", "frames",
              "iframes", "labels", "fps", "edge->cloud");
  for (auto& session : sessions) {
    const runtime::SessionReport report = session->Drain();
    std::printf("%-16s %-8zu %-8zu %-8zu %-10.1f %llu B\n",
                report.camera_id.c_str(), report.frames_pushed,
                report.iframes_selected, report.labels_written, report.fps,
                static_cast<unsigned long long>(report.edge_to_cloud_bytes));
  }
  auto stats = rt.Shutdown();
  if (!stats.ok()) {
    std::printf("shutdown FAILED: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  // Full stage table (queue columns read n/a for sources — they pop their
  // own camera queue; the pipeline connection stats don't apply).
  std::printf("shared tiers:\n%s", obs::FormatStageStats(*stats).c_str());
  if (!trace_out.empty()) {
    std::printf("trace written to %s (+ %s.metrics.json)\n", trace_out.c_str(),
                trace_out.c_str());
  }

  // --- Fleet scale: N cameras sharing batched cloud inference --------------
  // One short scene is encoded once and every synthetic camera replays the
  // wire bytes, so N only scales the serving side: N sessions' split-point
  // activations funnel into one InferenceBatcher, and each flushed batch
  // pays the suffix pass once for up to cloud_batch_max cameras.
  std::printf("\nfleet scale: %d cameras, batched cloud inference\n",
              fleet_cameras);
  synth::SceneConfig scene_cfg;
  scene_cfg.width = 64;
  scene_cfg.height = 48;
  scene_cfg.num_frames = 24;
  scene_cfg.seed = 7;
  const synth::SyntheticVideo fleet_scene = synth::GenerateScene(scene_cfg);
  auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(4, 120))
                     .Encode(fleet_scene.video);
  if (!encoded.ok()) {
    std::printf("encode FAILED\n");
    return 1;
  }
  const std::span<const std::uint8_t> wire(encoded->bytes);

  nn::ClassifierParams fleet_cp;
  fleet_cp.input_size = 32;
  fleet_cp.embedding_dim = 16;
  nn::FrameClassifier fleet_classifier(fleet_cp);
  if (!fleet_classifier.Fit(fleet_scene.video.frames, fleet_scene.truth, 4)
           .ok()) {
    std::printf("fleet classifier fit FAILED\n");
    return 1;
  }

  runtime::RuntimeConfig fleet_config;
  fleet_config.nn_input_size = 32;
  fleet_config.cloud_batch_max = 16;
  fleet_config.cloud_batch_fairness_share = 4;
  fleet_config.wan_parallelism = 2;
  fleet_config.cloud_nn_parallelism = 2;
  runtime::Runtime fleet_rt(fleet_config, &fleet_classifier);

  std::vector<std::unique_ptr<runtime::SieveSession>> fleet_sessions;
  for (int cam = 0; cam < fleet_cameras; ++cam) {
    runtime::SessionConfig sc;
    sc.width = scene_cfg.width;
    sc.height = scene_cfg.height;
    sc.encoder = codec::EncoderParams::Semantic(4, 120);
    auto session = fleet_rt.OpenSession("fleet-" + std::to_string(cam), sc);
    if (!session.ok()) {
      std::printf("OpenSession(fleet-%d) FAILED: %s\n", cam,
                  session.status().ToString().c_str());
      return 1;
    }
    fleet_sessions.push_back(std::move(*session));
  }

  std::vector<std::thread> fleet_feeds;
  for (auto& session : fleet_sessions) {
    fleet_feeds.emplace_back([&session, wire, &encoded] {
      for (const auto& record : encoded->records) {
        const auto bytes = wire.subspan(
            record.payload_offset - codec::FrameRecord::kHeaderSize,
            codec::FrameRecord::kHeaderSize + record.payload_size);
        if (!session->PushEncoded(record.type, record.index, bytes).ok())
          return;
      }
    });
  }
  for (auto& t : fleet_feeds) t.join();

  std::size_t delivered = 0, batched = 0;
  for (auto& session : fleet_sessions) {
    const runtime::SessionReport report = session->Drain();
    delivered += report.frames_delivered;
    batched += report.cloud_batched_frames;
  }
  const runtime::RuntimeHealth health = fleet_rt.health();
  std::printf("  delivered %zu frames (%zu via the batcher)\n", delivered,
              batched);
  std::printf("  %llu batched passes, avg occupancy %.1f cameras/pass\n",
              static_cast<unsigned long long>(health.cloud_batches),
              health.cloud_batch_occupancy_avg);
  if (!fleet_rt.Shutdown().ok()) {
    std::printf("fleet shutdown FAILED\n");
    return 1;
  }
  return 0;
}
