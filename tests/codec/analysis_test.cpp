#include "codec/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "codec/motion.h"
#include "common/rng.h"
#include "media/image_ops.h"
#include "runtime/executor.h"
#include "synth/scene.h"

namespace sieve::codec {
namespace {

synth::SyntheticVideo TestScene(std::uint64_t seed = 3, std::size_t frames = 200) {
  synth::SceneConfig c;
  c.width = 160;
  c.height = 120;
  c.num_frames = frames;
  c.seed = seed;
  c.mean_gap_seconds = 2.0;
  c.min_gap_seconds = 1.0;
  c.mean_dwell_seconds = 2.0;
  c.noise_sigma = 1.0;
  return synth::GenerateScene(c);
}

TEST(ScenecutBias, MonotoneInParameter) {
  double prev = -1;
  for (int sc = 0; sc <= 400; sc += 10) {
    const double bias = ScenecutBias(sc);
    EXPECT_GE(bias, prev);
    EXPECT_GE(bias, 0.0);
    EXPECT_LE(bias, 1.0);
    prev = bias;
  }
}

TEST(ScenecutBias, Extremes) {
  EXPECT_DOUBLE_EQ(ScenecutBias(0), 0.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(400), 1.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(-50), 0.0);
  EXPECT_DOUBLE_EQ(ScenecutBias(999), 1.0);
}

TEST(Analysis, CostsPerFrameMatchVideoLength) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  EXPECT_EQ(costs.size(), scene.video.frames.size());
}

TEST(Analysis, FirstFrameInterEqualsIntra) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  EXPECT_DOUBLE_EQ(costs[0].inter_cost, costs[0].intra_cost);
}

TEST(Analysis, InterNeverExceedsIntra) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  for (const auto& c : costs) {
    EXPECT_LE(c.inter_cost, c.intra_cost + 1e-9);
    EXPECT_GT(c.intra_cost, 0.0);
  }
}

TEST(Analysis, QuietFramesCheaperThanEventFrames) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto events = scene.truth.Events();
  ASSERT_GE(events.size(), 2u);

  // Max inter/intra ratio in a window around each transition vs quiet frames.
  double max_quiet = 0.0, max_transition = 0.0;
  for (std::size_t e = 1; e < events.size(); ++e) {
    const std::size_t s = events[e].start;
    for (std::size_t f = s > 6 ? s - 6 : 1; f < std::min(costs.size(), s + 7);
         ++f) {
      max_transition = std::max(max_transition,
                                costs[f].inter_cost / costs[f].intra_cost);
    }
  }
  for (std::size_t f = 1; f < costs.size(); ++f) {
    bool near_transition = false;
    for (std::size_t e = 1; e < events.size(); ++e) {
      const std::size_t s = events[e].start;
      if (f + 10 >= s && f <= s + 10) near_transition = true;
    }
    if (!near_transition) {
      max_quiet =
          std::max(max_quiet, costs[f].inter_cost / costs[f].intra_cost);
    }
  }
  EXPECT_GT(max_transition, 2.0 * max_quiet)
      << "object transitions must stand out of the quiet-frame noise floor";
}

std::vector<FrameCost> SerialCosts(const media::RawVideo& video) {
  FrameAnalyzer analyzer;
  std::vector<FrameCost> costs;
  for (const media::Frame& frame : video.frames) {
    costs.push_back(analyzer.Push(frame));
  }
  return costs;
}

/// Bit-for-bit equality (EXPECT_DOUBLE_EQ would forgive 4 ulps).
void ExpectSameBits(const std::vector<FrameCost>& got,
                    const std::vector<FrameCost>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t f = 0; f < got.size(); ++f) {
    EXPECT_EQ(std::memcmp(&got[f].intra_cost, &want[f].intra_cost, sizeof(double)), 0)
        << "frame " << f << ": " << got[f].intra_cost << " vs " << want[f].intra_cost;
    EXPECT_EQ(std::memcmp(&got[f].inter_cost, &want[f].inter_cost, sizeof(double)), 0)
        << "frame " << f << ": " << got[f].inter_cost << " vs " << want[f].inter_cost;
  }
}

/// 102x70 analyses at 51x35: odd-sized planes whose last block column and
/// row take the clamped border paths.
synth::SyntheticVideo RaggedScene() {
  synth::SceneConfig c;
  c.width = 102;
  c.height = 70;
  c.num_frames = 40;
  c.seed = 11;
  c.mean_gap_seconds = 0.3;
  c.min_gap_seconds = 0.1;
  c.jitter_px = 2;
  c.noise_sigma = 2.5;
  return synth::GenerateScene(c);
}

TEST(Analysis, FrameParallelBatchMatchesSerialStreamingLoop) {
  // Lengths 1-3 leave pool workers without a frame; 315 frames is one
  // tuning feed.
  std::vector<synth::SyntheticVideo> scenes;
  for (std::size_t frames : {1, 2, 3, 315}) {
    scenes.push_back(TestScene(3, frames));
  }
  scenes.push_back(RaggedScene());
  for (const synth::SyntheticVideo& scene : scenes) {
    SCOPED_TRACE(std::to_string(scene.video.frames.size()) + " frames of " +
                 std::to_string(scene.video.frames[0].width()) + "x" +
                 std::to_string(scene.video.frames[0].height()));
    ExpectSameBits(AnalyzeVideo(scene.video), SerialCosts(scene.video));
  }
}

TEST(Analysis, BatchNestedInSharedPoolTasksMatchesSerialLoop) {
  // Tuning several cameras at once from shared-pool tasks: AnalyzeVideo's
  // own fan-out on the same pool runs inline instead of deadlocking.
  const auto scene = RaggedScene();
  const std::vector<FrameCost> want = SerialCosts(scene.video);
  std::vector<std::vector<FrameCost>> got(6);
  runtime::SharedExecutor().ParallelFor(got.size(), [&](std::size_t i) {
    got[i] = AnalyzeVideo(scene.video);
  });
  for (const auto& costs : got) ExpectSameBits(costs, want);
}

/// Per-pixel reference for FrameAnalyzer's costs on analysis-scale planes:
/// every pixel read goes through at_clamped() and block costs accumulate in
/// double. Only the motion search (not rewritten) is shared with the
/// library; Downsample2x has its own reference test in media/.
FrameCost ReferenceCosts(const media::Plane& cur, const media::Plane* prev,
                         const AnalysisParams& params) {
  constexpr int bs = 8;
  const int mbs_x = std::max(1, (cur.width() + bs - 1) / bs);
  const int mbs_y = std::max(1, (cur.height() + bs - 1) / bs);
  double intra = 0, inter = 0;
  for (int my = 0; my < mbs_y; ++my) {
    double row_intra = 0, row_inter = 0;
    MotionVector predictor{0, 0};
    for (int mx = 0; mx < mbs_x; ++mx) {
      const int bx = mx * bs, by = my * bs;
      double sum = 0;
      for (int y = 0; y < bs; ++y) {
        for (int x = 0; x < bs; ++x) sum += cur.at_clamped(bx + x, by + y);
      }
      const double mean = sum / double(bs * bs);
      double dev = 0;
      for (int y = 0; y < bs; ++y) {
        for (int x = 0; x < bs; ++x) {
          dev += std::abs(double(cur.at_clamped(bx + x, by + y)) - mean);
        }
      }
      const double ic = dev + 1.0;
      row_intra += ic;
      if (prev == nullptr) continue;
      const MotionResult mr = DiamondSearch(cur, *prev, bx, by, bs, bs,
                                            params.search_range, predictor,
                                            params.lambda);
      predictor = mr.mv;
      double sad = 0;
      for (int y = 0; y < bs; ++y) {
        for (int x = 0; x < bs; ++x) {
          const int d = std::abs(int(cur.at_clamped(bx + x, by + y)) -
                                 int(prev->at_clamped(bx + mr.mv.dx + x,
                                                      by + mr.mv.dy + y)));
          if (d > params.noise_deadzone) sad += d - params.noise_deadzone;
        }
      }
      row_inter += std::min(sad, ic);
    }
    intra += row_intra;
    inter += row_inter;
  }
  const double n = double(mbs_x) * double(mbs_y);
  return {intra / n, prev != nullptr ? inter / n : intra / n};
}

TEST(Analysis, MatchesPerPixelReferenceWithBorderBlocks) {
  // 100x70 analyses at 50x35: the last block column is 2 pixels wide and
  // the last block row 3 pixels high, so every frame mixes interior blocks
  // with clamped border blocks. The second frame is the first shifted by
  // (3, 2) plus noise, so the inter cost comes from a real motion search.
  constexpr int kW = 100, kH = 70;
  Rng rng(29);
  media::Frame a(kW, kH), b(kW, kH);
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      a.y().at(x, y) = std::uint8_t((x * 7 + y * 13 + rng.UniformInt(0, 60)) & 0xFF);
    }
  }
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      const int v = a.y().at_clamped(x - 3, y - 2) + rng.UniformInt(-6, 6);
      b.y().at(x, y) = std::uint8_t(std::clamp(v, 0, 255));
    }
  }
  const AnalysisParams params;
  FrameAnalyzer analyzer(params);
  const media::Plane half_a = media::Downsample2x(a.y());
  const media::Plane half_b = media::Downsample2x(b.y());
  const FrameCost first = analyzer.Push(a);
  const FrameCost want_first = ReferenceCosts(half_a, nullptr, params);
  EXPECT_EQ(first.intra_cost, want_first.intra_cost);
  EXPECT_EQ(first.inter_cost, want_first.inter_cost);
  const FrameCost second = analyzer.Push(b);
  const FrameCost want_second = ReferenceCosts(half_b, &half_a, params);
  EXPECT_EQ(second.intra_cost, want_second.intra_cost);
  EXPECT_EQ(second.inter_cost, want_second.inter_cost);
  EXPECT_GT(second.inter_cost, 0.0);
}

TEST(Analysis, ResetForgetsHistory) {
  const auto scene = TestScene();
  FrameAnalyzer analyzer;
  analyzer.Push(scene.video.frames[0]);
  analyzer.Reset();
  const FrameCost cost = analyzer.Push(scene.video.frames[1]);
  EXPECT_DOUBLE_EQ(cost.inter_cost, cost.intra_cost)
      << "after reset the next frame has no predecessor";
}

TEST(Placement, FirstFrameAlwaysKeyframe) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 0, 2});
  ASSERT_FALSE(keyframes.empty());
  EXPECT_TRUE(keyframes[0]);
}

TEST(Placement, GopBoundForcesKeyframes) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{50, 0, 2});
  std::size_t since = 0;
  for (std::size_t i = 0; i < keyframes.size(); ++i) {
    if (keyframes[i]) {
      since = 0;
    } else {
      ++since;
      EXPECT_LT(since, 50u) << "GOP bound violated at frame " << i;
    }
  }
}

TEST(Placement, MinKeyintEnforced) {
  const auto scene = TestScene();
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 400, 5});
  std::size_t last_key = 0;
  for (std::size_t i = 1; i < keyframes.size(); ++i) {
    if (keyframes[i]) {
      EXPECT_GE(i - last_key, 5u);
      last_key = i;
    }
  }
}

class ScenecutMonotonicity : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenecutMonotonicity, MoreScenecutMeansMoreKeyframes) {
  const auto scene = TestScene(GetParam(), 180);
  const auto costs = AnalyzeVideo(scene.video);
  std::size_t prev_count = 0;
  for (int sc : {0, 100, 200, 250, 300, 350, 400}) {
    const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, sc, 1});
    std::size_t count = 0;
    for (bool k : keyframes) count += k;
    EXPECT_GE(count, prev_count) << "scenecut " << sc;
    prev_count = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenecutMonotonicity,
                         testing::Values(1, 2, 3, 4, 5, 11, 42));

TEST(Placement, Scenecut400SelectsEveryChangedFrame) {
  // At scenecut 400 the bias is 1: every frame whose (noise-deadzoned) inter
  // cost is nonzero must become an I-frame.
  const auto scene = TestScene(8, 60);
  const auto costs = AnalyzeVideo(scene.video);
  const auto keyframes = PlaceKeyframes(costs, KeyframeParams{100000, 400, 1});
  for (std::size_t i = 1; i < costs.size(); ++i) {
    EXPECT_EQ(keyframes[i], costs[i].inter_cost > 0.0) << "frame " << i;
  }
}

TEST(Placement, IsKeyframeStreamingContract) {
  FrameCost quiet{1000.0, 5.0};
  FrameCost busy{1000.0, 600.0};
  KeyframeParams params{250, 250, 2};
  EXPECT_TRUE(IsKeyframe(quiet, params, 0));    // first frame
  EXPECT_FALSE(IsKeyframe(quiet, params, 1));   // min keyint
  EXPECT_FALSE(IsKeyframe(quiet, params, 10));  // below threshold
  EXPECT_TRUE(IsKeyframe(busy, params, 10));    // above threshold
  EXPECT_TRUE(IsKeyframe(quiet, params, 250));  // GOP bound
}


TEST(MinKeyint, ExplicitValueWins) {
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{250, 40, 7}), 7);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{5000, 40, 1}), 1);
}

TEST(MinKeyint, AutoIsGopTenthClamped) {
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{250, 40, 0}), 12);  // clamp high
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{100, 40, 0}), 10);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{50, 40, 0}), 5);
  EXPECT_EQ(EffectiveMinKeyint(KeyframeParams{10, 40, 0}), 2);    // clamp low
}

TEST(MinKeyint, AutoSuppressesBackToBackScenecuts) {
  const auto scene = TestScene(19, 120);
  const auto costs = AnalyzeVideo(scene.video);
  KeyframeParams params{100, 400, 0};  // auto -> 10
  const auto keyframes = PlaceKeyframes(costs, params);
  std::size_t last = 0;
  bool first = true;
  for (std::size_t i = 0; i < keyframes.size(); ++i) {
    if (!keyframes[i]) continue;
    if (!first) {
      EXPECT_GE(i - last, 10u) << "frame " << i;
    }
    last = i;
    first = false;
  }
}

}  // namespace
}  // namespace sieve::codec
