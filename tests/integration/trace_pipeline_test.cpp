// Per-frame tracing across the whole pipeline: two live camera sessions
// stream through 15% WAN loss into the batched cloud tier with the trace
// recorder on, and every delivered frame must yield a complete, causally
// ordered span tree — encode pass -> edge seeker stage -> wan/sent ->
// db/insert -> frame/delivered — on that frame's (track, frame) identity.
// The run's retries appear as wan/retry instants, the trace reconciles
// with the session ledger (delivered / stored-edge / inserted counts match
// the SessionReport exactly), and an identical untraced run produces
// byte-identical databases (the observer-effect gate).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/encoder.h"
#include "nn/classifier.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "synth/scene.h"

namespace sieve::runtime {
namespace {

constexpr int kW = 64, kH = 48;
constexpr std::size_t kFrames = 96;

synth::SyntheticVideo TraceScene() {
  synth::SceneConfig c;
  c.width = kW;
  c.height = kH;
  c.num_frames = kFrames;
  c.seed = 29;
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  return synth::GenerateScene(c);
}

struct RunResult {
  std::vector<SessionReport> reports;              // cam-a, cam-b
  std::vector<std::map<std::size_t, std::uint32_t>> dbs;  // per camera
};

/// One full 2-session run: PushFrame (so encode happens inside the
/// session, emitting encode spans on the session's track), 15% loss with a
/// deep retry budget (every I-frame eventually delivers — the delivered
/// SET is deterministic even though the retry pattern is not), batched
/// cloud inference.
RunResult RunPipeline(const synth::SyntheticVideo& scene,
                      nn::FrameClassifier* classifier) {
  RuntimeConfig config;
  config.nn_input_size = 32;
  config.wan_faults.seed = 4711;
  config.wan_faults.drop_probability = 0.15;
  config.wan_retry.max_attempts = 8;
  config.adaptive_placement = false;
  config.cloud_batch_max = 8;
  Runtime runtime(config, classifier);

  SessionConfig sc;
  sc.width = kW;
  sc.height = kH;
  sc.encoder = codec::EncoderParams::Semantic(4, 120);
  auto a = runtime.OpenSession("cam-a", sc);
  auto b = runtime.OpenSession("cam-b", sc);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());

  SieveSession* sessions[] = {a->get(), b->get()};
  std::vector<std::thread> feeds;
  for (SieveSession* session : sessions) {
    feeds.emplace_back([session, &scene] {
      for (const auto& frame : scene.video.frames) {
        if (!session->PushFrame(frame).ok()) return;
      }
    });
  }
  for (auto& t : feeds) t.join();

  RunResult out;
  for (SieveSession* session : sessions) {
    out.reports.push_back(session->Drain());
    std::map<std::size_t, std::uint32_t> rows;
    for (const auto& [frame, labels] : session->db().rows()) {
      rows.emplace(frame, labels.bits());
    }
    out.dbs.push_back(std::move(rows));
  }
  EXPECT_TRUE(runtime.Shutdown().ok());
  return out;
}

TEST(TracePipeline, DeliveredFramesYieldCausallyOrderedSpanTrees) {
  const synth::SyntheticVideo scene = TraceScene();
  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  ASSERT_TRUE(classifier.Fit(scene.video.frames, scene.truth, 4).ok());

  obs::StartTracing(1 << 15);
  const RunResult traced = RunPipeline(scene, &classifier);
  obs::StopTracing();
  const auto threads = obs::SnapshotTrace();

  // The identical run without the recorder: tracing must not change one
  // byte of any camera's database (no observer effect on frame routing).
  const RunResult untraced = RunPipeline(scene, &classifier);
  EXPECT_EQ(traced.dbs, untraced.dbs);

  // Rings were sized generously; a wrapped ring here would mean the test's
  // completeness assertions are meaningless.
  for (const auto& t : threads) {
    EXPECT_EQ(t.dropped, 0u) << "ring wrapped on thread " << t.thread_name;
  }

  // Index every event by (name, track, frame) -> earliest timestamp, and
  // count per (name, track).
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>,
           std::uint64_t>
      first_ts;
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> count;
  std::size_t retries_total = 0;
  for (const auto& t : threads) {
    for (const auto& e : t.events) {
      if (e.name == nullptr) continue;
      const std::string name = e.name;
      const auto key = std::make_tuple(name, e.track, e.frame);
      const auto it = first_ts.find(key);
      if (it == first_ts.end() || e.ts_us < it->second) {
        first_ts[key] = e.ts_us;
      }
      ++count[{name, e.track}];
      if (name == "wan/retry") ++retries_total;
    }
  }

  // 48 I-frame messages through 15% loss: the seeded schedule always
  // produces at least one retry, and each is an instant on its frame's
  // track so a backoff storm is attributable to a camera.
  EXPECT_GE(retries_total, 1u);

  // Per session: the first OpenSession gets route "<name>#1", the second
  // "<name>#2"; the exporter knows the track by that route name.
  const std::string routes[] = {"cam-a#1", "cam-b#2"};
  for (std::size_t cam = 0; cam < 2; ++cam) {
    const std::uint64_t track = obs::HashTrack(routes[cam]);
    EXPECT_EQ(obs::TrackName(track), routes[cam]);
    const SessionReport& report = traced.reports[cam];
    ASSERT_GT(report.frames_delivered, 0u);

    // Ledger reconciliation: the trace's terminal instants count exactly
    // what the session settled.
    EXPECT_EQ((count[{"frame/delivered", track}]), report.frames_delivered);
    EXPECT_EQ((count[{"frame/stored-edge", track}]),
              report.frames_stored_edge);
    EXPECT_EQ((count[{"db/insert", track}]), report.labels_written);

    // Every delivered frame (== a db row): its span tree is complete and
    // causally ordered on the shared (track, frame) identity.
    for (const auto& [frame, labels] : traced.dbs[cam]) {
      const std::uint64_t f = frame;
      const auto ts_of = [&](const char* name) {
        const auto it = first_ts.find(std::make_tuple(std::string(name),
                                                      track, f));
        EXPECT_NE(it, first_ts.end())
            << routes[cam] << " frame " << f << ": missing " << name;
        return it == first_ts.end() ? std::uint64_t(0) : it->second;
      };
      const std::uint64_t t_encode = ts_of("encode/pass");
      const std::uint64_t t_seek = ts_of("stage/edge/iframe-seeker");
      const std::uint64_t t_sent = ts_of("wan/sent");
      const std::uint64_t t_insert = ts_of("db/insert");
      const std::uint64_t t_done = ts_of("frame/delivered");
      EXPECT_LE(t_encode, t_sent) << "encode must precede the WAN send";
      EXPECT_LE(t_seek, t_sent) << "the seeker stage must precede the send";
      EXPECT_LE(t_sent, t_done) << "the send must precede settlement";
      EXPECT_LE(t_insert, t_done) << "the db insert must precede settlement";
    }
  }
}

}  // namespace
}  // namespace sieve::runtime
