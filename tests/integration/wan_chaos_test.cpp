// The chaos acceptance run (docs/robustness.md): three live sessions with
// heterogeneous placements stream through a scripted WAN schedule — 5%
// packet loss plus a hard 20-second outage — and the supervision contract
// must hold end to end:
//
//   * no deadlocks, no silent loss: every pushed frame reconciles as
//     stored-edge / delivered / dropped on every session;
//   * WAN-using sessions fall back to edge-only during the outage and are
//     re-promoted to their base plan on recovery (replan counters move);
//   * the live query index stays bit-exact against a from-scratch rebuild
//     of the drained databases;
//   * Shutdown() mid-outage returns promptly even with a retry sitting in
//     a minutes-long real-time backoff.
//
// The fault schedule runs on the link's virtual clock (link_time_scale = 0,
// stream-time hints from frame indices), so the chaos script replays
// identically under ASan/UBSan/TSan regardless of machine speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/container.h"
#include "codec/encoder.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

constexpr std::size_t kFrames = 160;
constexpr double kFps = 5.0;  // 160 frames = 32 s of stream time

synth::SyntheticVideo ChaosScene() {
  synth::SceneConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = kFrames;
  c.seed = 13;
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  return synth::GenerateScene(c);
}

void ExpectReconciled(const SessionReport& r) {
  EXPECT_EQ(r.frames_pushed,
            r.frames_stored_edge + r.frames_delivered + r.frames_dropped)
      << r.camera_id << ": a frame was silently lost";
  EXPECT_EQ(r.frames_dropped,
            r.dropped_wan + r.dropped_corrupt + r.dropped_shutdown);
  EXPECT_EQ(r.frames_delivered, r.labels_written);
}

/// Push `record` (header + payload wire bytes) into `session`.
Status PushRecord(SieveSession& session,
                  std::span<const std::uint8_t> container,
                  const codec::FrameRecord& record) {
  return session.PushEncoded(
      record.type, record.index,
      container.subspan(record.payload_offset - codec::FrameRecord::kHeaderSize,
                        codec::FrameRecord::kHeaderSize + record.payload_size));
}

TEST(WanChaos, ScriptedOutageRunReconcilesDegradesAndRecovers) {
  const synth::SyntheticVideo scene = ChaosScene();
  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(scene.video.frames, scene.truth, 4).ok());
  // Encode once; every session streams the same pre-encoded feed.
  auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(4, 120))
                     .Encode(scene.video);
  ASSERT_TRUE(encoded.ok());
  const std::span<const std::uint8_t> bytes(encoded->bytes);

  RuntimeConfig config;
  config.nn_input_size = 32;
  // The scripted schedule: 5% loss throughout, hard outage over stream
  // seconds [6, 26) — 20 s of a 32 s stream.
  config.wan_faults.seed = 2024;
  config.wan_faults.drop_probability = 0.05;
  config.wan_faults.outages.push_back({6.0, 26.0});
  config.wan_retry.max_attempts = 3;
  config.wan_retry.deadline_ms = 2000.0;
  config.wan_health.down_after_failures = 3;
  config.wan_health.loss_alpha = 0.5;
  config.wan_health.healthy_loss = 0.25;
  config.wan_health.promote_after_successes = 2;
  Runtime runtime(config, &classifier);

  SessionConfig base;
  base.width = 64;
  base.height = 48;
  base.fps = kFps;
  base.encoder = codec::EncoderParams::Semantic(4, 120);

  SessionConfig fixed = base;
  fixed.placement = PlacementMode::kFixed;
  fixed.fixed_split = 1;  // ships cut-point activations over the WAN
  SessionConfig auto_place = base;
  auto_place.placement = PlacementMode::kAuto;

  auto cloud = runtime.OpenSession("cam-cloud", base);
  auto split = runtime.OpenSession("cam-split", fixed);
  auto automatic = runtime.OpenSession("cam-auto", auto_place);
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(automatic.ok());
  SieveSession* sessions[] = {cloud->get(), split->get(), automatic->get()};

  // Stream the first 10 s — the outage starts at 6 s, so by the time these
  // frames clear the WAN stage the link has seen several dead sends.
  const std::size_t kMidpoint = std::size_t(10.0 * kFps);
  for (std::size_t i = 0; i < kMidpoint; ++i) {
    for (SieveSession* s : sessions) {
      ASSERT_TRUE(PushRecord(*s, bytes, encoded->records[i]).ok());
    }
  }

  // Supervision must observe the outage: the link trips kDown and the
  // WAN-using sessions (all-cloud and split-1 at minimum) fall back to
  // edge-only. The WAN stage processes asynchronously, so poll with a
  // generous wall bound — on a healthy build this converges in ms.
  const auto poll_start = std::chrono::steady_clock::now();
  RuntimeHealth mid{};
  while (std::chrono::steady_clock::now() - poll_start <
         std::chrono::seconds(60)) {
    mid = runtime.health();
    if (mid.wan_link == net::LinkHealth::kDown &&
        mid.sessions_edge_fallback >= 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(mid.wan_link, net::LinkHealth::kDown) << "outage not observed";
  EXPECT_GE(mid.sessions_edge_fallback, 2u);
  EXPECT_GE(mid.replans, 2u);

  // Stream the rest: recovery at 26 s, then 6 more seconds of healthy link.
  for (std::size_t i = kMidpoint; i < encoded->records.size(); ++i) {
    for (SieveSession* s : sessions) {
      ASSERT_TRUE(PushRecord(*s, bytes, encoded->records[i]).ok());
    }
  }

  const SessionReport rc = (*cloud)->Drain();
  const SessionReport rs = (*split)->Drain();
  const SessionReport ra = (*automatic)->Drain();
  for (const SessionReport* r : {&rc, &rs, &ra}) {
    ExpectReconciled(*r);
    EXPECT_EQ(r->frames_pushed, kFrames);
    EXPECT_GT(r->frames_delivered, 0u);
  }
  // The WAN-using sessions degraded and recovered: at least down + up.
  for (const SessionReport* r : {&rc, &rs}) {
    EXPECT_GE(r->replans, 2u) << r->camera_id;
    EXPECT_EQ(r->health, SessionHealth::kHealthy) << r->camera_id;
  }
  // Which session eats the drop that trips kDown depends on send
  // interleaving (the fallback then shields the others), so the explicit
  // drop guarantee is fleet-wide, not per-camera.
  EXPECT_GE(rc.dropped_wan + rs.dropped_wan + ra.dropped_wan, 1u);
  EXPECT_EQ(rc.nn_split, 0u) << "base all-cloud plan restored";
  EXPECT_EQ(rs.nn_split, 1u) << "base fixed split restored";
  // Every camera's rows reached the index in push order: the labels of an
  // edge fallback never overtook the camera's frames still in the batcher.
  EXPECT_EQ(runtime.registry().GetCounter("query.rebuilds")->value(), 0u);

  const RuntimeHealth final_health = runtime.health();
  EXPECT_EQ(final_health.wan_link, net::LinkHealth::kHealthy);
  EXPECT_GE(final_health.replans, 4u);
  EXPECT_GE(final_health.wan_messages_dropped, 1u);
  EXPECT_GT(final_health.wan_retries, 0u);

  // Drained-equivalence: the live index against a from-scratch rebuild of
  // the drained databases, bit for bit.
  const std::map<std::string, const SieveSession*> by_id = {
      {"cam-cloud", cloud->get()},
      {"cam-split", split->get()},
      {"cam-auto", automatic->get()}};
  const std::map<std::string, std::size_t> totals = {
      {"cam-cloud", rc.frames_pushed},
      {"cam-split", rs.frames_pushed},
      {"cam-auto", ra.frames_pushed}};
  const auto snap = runtime.query().snapshot();
  std::map<std::string, query::CameraClock> clocks;
  for (const auto& [route, record] : snap->cameras) {
    EXPECT_TRUE(record->sealed);
    clocks[record->camera_id] = record->clock;
  }
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    const auto cls = synth::ObjectClass(c);
    struct Expected {
      std::string camera;
      std::size_t begin, end;
      double begin_s, end_s;
    };
    std::vector<Expected> expected;
    for (const auto& [id, session] : by_id) {
      const query::CameraClock clock = clocks.at(id);
      for (const auto& [begin, end] :
           session->db().FindObject(cls, totals.at(id))) {
        expected.push_back(Expected{id, begin, end, clock.TimeOf(begin),
                                    clock.TimeOf(end)});
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const Expected& a, const Expected& b) {
                return std::tie(a.begin_s, a.camera, a.begin) <
                       std::tie(b.begin_s, b.camera, b.begin);
              });
    const auto hits = runtime.query().FindObject(cls);
    ASSERT_EQ(hits.size(), expected.size()) << "class " << c;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].camera_id, expected[i].camera);
      EXPECT_EQ(hits[i].begin_frame, expected[i].begin);
      EXPECT_EQ(hits[i].end_frame, expected[i].end);
      EXPECT_EQ(hits[i].begin_seconds, expected[i].begin_s);
      EXPECT_EQ(hits[i].end_seconds, expected[i].end_s);
    }
  }
  ASSERT_TRUE(runtime.Shutdown().ok());
}

TEST(WanChaos, ShutdownMidOutageReturnsPromptly) {
  // Real time scale and a one-minute backoff: without link cancellation,
  // Shutdown would sit behind the WAN retry loop for minutes.
  synth::SceneConfig sc;
  sc.width = 64;
  sc.height = 48;
  sc.num_frames = 12;
  sc.seed = 5;
  sc.mean_gap_seconds = 0.5;
  sc.min_gap_seconds = 0.2;
  sc.mean_dwell_seconds = 0.8;
  const synth::SyntheticVideo scene = synth::GenerateScene(sc);
  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(scene.video.frames, scene.truth, 2).ok());

  RuntimeConfig config;
  config.nn_input_size = 32;
  config.link_time_scale = 1.0;
  config.wan_faults.outages.push_back({0.0, 1e9});  // permanently down
  config.wan_retry.max_attempts = 1000;
  config.wan_retry.deadline_ms = 1e7;
  config.wan_retry.initial_backoff_ms = 60000.0;
  Runtime runtime(config, &classifier);
  SessionConfig sconfig;
  sconfig.width = 64;
  sconfig.height = 48;
  sconfig.encoder = codec::EncoderParams::Semantic(4, 120);
  auto session = runtime.OpenSession("doomed", sconfig);
  ASSERT_TRUE(session.ok());
  for (const auto& frame : scene.video.frames) {
    ASSERT_TRUE((*session)->PushFrame(frame).ok());
  }
  // Wait until a WAN send has actually failed an attempt — it is now
  // sitting in (or heading into) a 60 s modelled backoff.
  const auto wait_start = std::chrono::steady_clock::now();
  while (runtime.wan().meter().retransmit_bytes() == 0 &&
         std::chrono::steady_clock::now() - wait_start <
             std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(runtime.wan().meter().retransmit_bytes(), 0u);

  const auto shutdown_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(runtime.Shutdown().ok());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    shutdown_start)
          .count();
  EXPECT_LT(waited, 30.0) << "Shutdown blocked behind the WAN backoff";

  const SessionReport report = (*session)->Drain();
  ExpectReconciled(report);
  EXPECT_EQ(report.frames_pushed, scene.video.frames.size());
  // The send that was parked in backoff settled as an explicit
  // shutdown-time drop, not a hang and not silent loss.
  EXPECT_GE(report.dropped_shutdown + report.dropped_wan, 1u);
}

/// One isolated corrupt-WAN run: a single session on its own Runtime, so
/// the fault injector's draw sequence depends only on this session's sends.
struct CorruptRun {
  SessionReport report;
  std::map<std::size_t, synth::LabelSet> rows;
};

CorruptRun RunCorruptWan(const nn::FrameClassifier& classifier,
                         const codec::EncodedVideo& encoded, std::size_t split,
                         std::size_t batch_max) {
  RuntimeConfig config;
  config.nn_input_size = 32;
  config.adaptive_placement = false;  // the plan must not move mid-run
  config.wan_parallelism = 1;
  config.cloud_batch_max = batch_max;
  // A seed under which some corrupt frames fail decoding at both splits.
  config.wan_faults.seed = 6;
  config.wan_faults.corrupt_probability = 0.6;
  Runtime runtime(config, &classifier);
  SessionConfig sc;
  sc.width = 64;
  sc.height = 48;
  sc.fps = kFps;
  sc.encoder = codec::EncoderParams::Semantic(4, 120);
  sc.placement = PlacementMode::kFixed;
  sc.fixed_split = split;
  auto session = runtime.OpenSession("cam-corrupt", sc);
  EXPECT_TRUE(session.ok());
  CorruptRun run;
  if (!session.ok()) return run;
  const std::span<const std::uint8_t> bytes(encoded.bytes);
  for (const codec::FrameRecord& record : encoded.records) {
    EXPECT_TRUE(PushRecord(**session, bytes, record).ok());
  }
  run.report = (*session)->Drain();
  run.rows = (*session)->db().rows();
  EXPECT_TRUE(runtime.Shutdown().ok());
  return run;
}

TEST(WanChaos, CorruptDeliveriesDropAndReclassifyIdenticallyWhenBatched) {
  // Corrupted WAN deliveries must settle as dropped_corrupt with their bytes
  // moved out of goodput, at size-1 flushes and at batches of up to 16 —
  // and the two runs must agree frame for frame.
  const synth::SyntheticVideo scene = ChaosScene();
  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(scene.video.frames, scene.truth, 4).ok());
  auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(4, 120))
                     .Encode(scene.video);
  ASSERT_TRUE(encoded.ok());
  const std::size_t mid_split = (classifier.network().LayerCount() + 1) / 2;
  ASSERT_GT(mid_split, 0u);

  for (const std::size_t split : {std::size_t(0), mid_split}) {
    SCOPED_TRACE("split " + std::to_string(split));
    const CorruptRun unbatched = RunCorruptWan(classifier, *encoded, split, 1);
    const CorruptRun batched = RunCorruptWan(classifier, *encoded, split, 16);
    for (const CorruptRun* run : {&unbatched, &batched}) {
      const SessionReport& r = run->report;
      ExpectReconciled(r);
      EXPECT_EQ(r.frames_pushed, kFrames);
      EXPECT_EQ(r.nn_split, split);
      EXPECT_EQ(r.dropped_wan, 0u);
      EXPECT_GT(r.dropped_corrupt, 0u) << "no corrupt delivery was dropped";
      EXPECT_EQ(r.wan_corrupt_bytes > 0, r.dropped_corrupt > 0);
      EXPECT_GT(r.frames_delivered, 0u);
    }
    EXPECT_EQ(batched.report.cloud_batched_frames,
              batched.report.frames_delivered);
    EXPECT_EQ(unbatched.rows, batched.rows);
    EXPECT_EQ(unbatched.report.dropped_corrupt, batched.report.dropped_corrupt);
    EXPECT_EQ(unbatched.report.wan_corrupt_bytes,
              batched.report.wan_corrupt_bytes);
    EXPECT_EQ(unbatched.report.edge_to_cloud_bytes,
              batched.report.edge_to_cloud_bytes);
  }
}

}  // namespace
}  // namespace sieve::runtime
