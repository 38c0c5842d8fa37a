#include "vision/similarity.h"

#include <gtest/gtest.h>

#include "synth/scene.h"

namespace sieve::vision {
namespace {

synth::SyntheticVideo TestScene(std::uint64_t seed = 31) {
  synth::SceneConfig c;
  c.width = 160;
  c.height = 120;
  c.num_frames = 150;
  c.seed = seed;
  c.mean_gap_seconds = 1.5;
  c.min_gap_seconds = 0.8;
  c.mean_dwell_seconds = 1.5;
  c.noise_sigma = 1.0;
  return synth::GenerateScene(c);
}

TEST(MseSignal, FirstFrameIsZero) {
  const auto scene = TestScene();
  const auto signal = MseChangeSignal(scene.video.frames);
  ASSERT_EQ(signal.size(), scene.video.frames.size());
  EXPECT_EQ(signal[0], 0.0);
}

TEST(MseSignal, SpikesAtEventTransitions) {
  const auto scene = TestScene();
  const auto signal = MseChangeSignal(scene.video.frames);
  const auto events = scene.truth.Events();
  ASSERT_GE(events.size(), 2u);
  // Mean signal near transitions must exceed mean quiet signal.
  double transition_peak = 0, quiet_sum = 0;
  std::size_t quiet_n = 0;
  for (std::size_t f = 1; f < signal.size(); ++f) {
    bool near = false;
    for (std::size_t e = 1; e < events.size(); ++e) {
      if (f + 12 >= events[e].start && f <= events[e].start + 12) near = true;
    }
    if (near) {
      transition_peak = std::max(transition_peak, signal[f]);
    } else {
      quiet_sum += signal[f];
      ++quiet_n;
    }
  }
  ASSERT_GT(quiet_n, 0u);
  EXPECT_GT(transition_peak, 3.0 * (quiet_sum / double(quiet_n)));
}

TEST(MseSignal, StreamingMatchesBatch) {
  const auto scene = TestScene();
  const auto batch = MseChangeSignal(scene.video.frames);
  MseSignal streaming;
  for (std::size_t f = 0; f < scene.video.frames.size(); ++f) {
    EXPECT_DOUBLE_EQ(streaming.Push(scene.video.frames[f]), batch[f]);
  }
}

TEST(SiftSignal, ProducesFiniteValues) {
  const auto scene = TestScene();
  // Subsample for speed; signal values must be in [0, 1].
  std::vector<media::Frame> frames(scene.video.frames.begin(),
                                   scene.video.frames.begin() + 20);
  const auto signal = SiftChangeSignal(frames);
  ASSERT_EQ(signal.size(), 20u);
  for (double v : signal) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SelectByThreshold, FrameZeroAlwaysSelected) {
  const std::vector<double> signal{0.0, 0.1, 0.9, 0.2};
  const auto sel = SelectByThreshold(signal, 100.0);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 0u);
}

TEST(SelectByThreshold, StrictlyAboveThreshold) {
  const std::vector<double> signal{0.0, 0.5, 0.5, 0.6};
  const auto sel = SelectByThreshold(signal, 0.5);
  // Frame 0 + frame 3 only (0.5 is not > 0.5).
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[1], 3u);
}

TEST(SelectByThreshold, MonotoneInThreshold) {
  const auto scene = TestScene();
  const auto signal = MseChangeSignal(scene.video.frames);
  std::size_t prev = SIZE_MAX;
  for (double t : {0.0, 0.5, 2.0, 10.0, 100.0}) {
    const std::size_t count = SelectByThreshold(signal, t).size();
    EXPECT_LE(count, prev);
    prev = count;
  }
}

TEST(CalibrateThreshold, HitsTargetCount) {
  const auto scene = TestScene();
  const auto signal = MseChangeSignal(scene.video.frames);
  for (std::size_t target : {2u, 5u, 10u, 20u}) {
    const double threshold = CalibrateThreshold(signal, target);
    const auto sel = SelectByThreshold(signal, threshold);
    EXPECT_NEAR(double(sel.size()), double(target), 2.0) << "target " << target;
  }
}

TEST(CalibrateThreshold, TargetOneSelectsOnlyBootstrapFrame) {
  const std::vector<double> signal{0.0, 5.0, 3.0};
  const double t = CalibrateThreshold(signal, 1);
  EXPECT_EQ(SelectByThreshold(signal, t).size(), 1u);
}

TEST(CalibrateThreshold, HugeTargetSelectsEverything) {
  const std::vector<double> signal{0.0, 5.0, 3.0, 4.0};
  const double t = CalibrateThreshold(signal, 100);
  EXPECT_EQ(SelectByThreshold(signal, t).size(), 4u);
}

TEST(CalibrateThreshold, PlateauAtTheTopStillSelects) {
  // Three frames tie for the largest change. A target of 3 (frame 0 plus
  // two) cuts through the plateau: none of it is 2 away from the target,
  // all of it 1 away, so all three are selected instead of none.
  const std::vector<double> signal{0.0, 7.0, 1.0, 7.0, 2.0, 7.0, 0.5};
  const double t = CalibrateThreshold(signal, 3);
  const auto sel = SelectByThreshold(signal, t);
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1, 3, 5}));
}

TEST(CalibrateThreshold, PlateauCountIsNearestToTarget) {
  // Sorted tail: 9, 4, 4, 4, 4, 1. For every budget the selection count is
  // the reachable count (1, 5 or 6 extra frames) nearest to target - 1,
  // the smaller one on a draw.
  const std::vector<double> signal{0.0, 4.0, 9.0, 4.0, 1.0, 4.0, 4.0};
  const std::size_t want_extra[] = {0, 1, 1, 1, 5, 5, 6};
  for (std::size_t target = 1; target <= 7; ++target) {
    const double t = CalibrateThreshold(signal, target);
    EXPECT_EQ(SelectByThreshold(signal, t).size(), 1 + want_extra[target - 1])
        << "target " << target;
  }
}

TEST(CalibrateThreshold, EmptySignalIsSafe) {
  EXPECT_EQ(CalibrateThreshold({}, 5), 0.0);
}

}  // namespace
}  // namespace sieve::vision
