#include "vision/sift.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "synth/sprites.h"

namespace sieve::vision {
namespace {

media::Plane Textured(int w, int h, std::uint64_t seed) {
  sieve::Rng rng(seed);
  media::Plane p(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) p.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
  }
  return p;
}

media::Plane SceneWithBlobs(int w, int h, int blobs, std::uint64_t seed) {
  sieve::Rng rng(seed);
  media::Plane p(w, h, 90);
  for (int b = 0; b < blobs; ++b) {
    const int cx = rng.UniformInt(20, w - 20), cy = rng.UniformInt(20, h - 20);
    const int r = rng.UniformInt(4, 9);
    const std::uint8_t v = std::uint8_t(rng.UniformInt(160, 240));
    for (int y = -r; y <= r; ++y) {
      for (int x = -r; x <= r; ++x) {
        if (x * x + y * y <= r * r) p.at_clamped(cx + x, cy + y);
        if (x * x + y * y <= r * r && cx + x >= 0 && cx + x < w && cy + y >= 0 &&
            cy + y < h) {
          p.at(cx + x, cy + y) = v;
        }
      }
    }
  }
  return p;
}

TEST(Sift, FlatImageHasNoKeypoints) {
  const auto kps = ExtractSift(media::Plane(128, 128, 100));
  EXPECT_TRUE(kps.empty());
}

TEST(Sift, BlobsProduceKeypoints) {
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 12, 1));
  EXPECT_GE(kps.size(), 6u);
}

TEST(Sift, KeypointsWithinImageBounds) {
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 12, 2));
  for (const auto& kp : kps) {
    EXPECT_GE(kp.x, 0.0f);
    EXPECT_LT(kp.x, 160.0f);
    EXPECT_GE(kp.y, 0.0f);
    EXPECT_LT(kp.y, 120.0f);
  }
}

TEST(Sift, DescriptorsAreNormalized) {
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 12, 3));
  ASSERT_FALSE(kps.empty());
  for (const auto& kp : kps) {
    double norm = 0;
    for (float v : kp.descriptor) {
      norm += double(v) * v;
      EXPECT_GE(v, 0.0f);
      // Values are clamped to 0.2 *before* the final renormalization, so the
      // post-normalization ceiling is 0.2 / min_norm; 0.5 is a safe bound.
      EXPECT_LE(v, 0.5f);
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 0.01);
  }
}

TEST(Sift, MaxKeypointsRespected) {
  SiftParams params;
  params.max_keypoints = 10;
  params.contrast_threshold = 2.0f;
  const auto kps = ExtractSift(Textured(256, 192, 4), params);
  EXPECT_LE(kps.size(), 10u);
}

TEST(Sift, KeptKeypointsAreStrongest) {
  SiftParams all;
  all.max_keypoints = 100000;
  SiftParams capped;
  capped.max_keypoints = 5;
  const media::Plane img = SceneWithBlobs(160, 120, 15, 5);
  const auto everything = ExtractSift(img, all);
  const auto top = ExtractSift(img, capped);
  ASSERT_GE(everything.size(), top.size());
  if (top.size() == 5) {
    float weakest_kept = top.back().response;
    for (const auto& kp : top) weakest_kept = std::min(weakest_kept, kp.response);
    std::size_t stronger = 0;
    for (const auto& kp : everything) {
      if (kp.response > weakest_kept) ++stronger;
    }
    EXPECT_LE(stronger, 5u);
  }
}

TEST(Sift, IdenticalFramesMatchPerfectly) {
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 12, 6));
  ASSERT_GE(kps.size(), 4u);
  const auto result = MatchSift(kps, kps);
  EXPECT_GT(result.similarity, 0.9);
}

TEST(Sift, UnrelatedFramesMatchPoorly) {
  const auto a = ExtractSift(SceneWithBlobs(160, 120, 12, 7));
  const auto b = ExtractSift(SceneWithBlobs(160, 120, 12, 8));
  ASSERT_GE(a.size(), 3u);
  ASSERT_GE(b.size(), 3u);
  const auto self = MatchSift(a, a);
  const auto cross = MatchSift(a, b);
  EXPECT_LT(cross.similarity, self.similarity);
}

TEST(Sift, EmptyVsEmptyIsSimilar) {
  const std::vector<SiftKeypoint> none;
  EXPECT_DOUBLE_EQ(MatchSift(none, none).similarity, 1.0);
}

TEST(Sift, EmptyVsNonEmptyIsDissimilar) {
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 10, 9));
  ASSERT_FALSE(kps.empty());
  EXPECT_DOUBLE_EQ(MatchSift({}, kps).similarity, 0.0);
}

TEST(Sift, LoneKeypointInBStillBoundsSimilarity) {
  // With |b| = 1 there is no second neighbour for the ratio test: each of
  // a's five keypoints matches the lone one, and similarity is 5 / 5.
  const auto kps = ExtractSift(SceneWithBlobs(160, 120, 12, 12));
  ASSERT_GE(kps.size(), 6u);
  const std::vector<SiftKeypoint> a(kps.begin(), kps.begin() + 5);
  const std::vector<SiftKeypoint> b(kps.begin() + 5, kps.begin() + 6);
  const SiftMatchResult r = MatchSift(a, b);
  EXPECT_EQ(r.candidates, 5u);
  EXPECT_EQ(r.matches, 5u);
  EXPECT_DOUBLE_EQ(r.similarity, 1.0);
}

TEST(Sift, SimilarityStaysInUnitIntervalForAnySizes) {
  // Seeded sweep over keypoint sets of unequal sizes, both ways round:
  // similarity is a fraction of a's keypoints, never above 1.
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const auto x = ExtractSift(SceneWithBlobs(160, 120, 12, seed));
    const auto y = ExtractSift(SceneWithBlobs(160, 120, 6, seed + 100));
    for (std::size_t keep : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                             y.size()}) {
      const std::vector<SiftKeypoint> few(
          y.begin(), y.begin() + std::ptrdiff_t(std::min(keep, y.size())));
      for (const auto& [a, b] : {std::pair{&x, &few}, std::pair{&few, &x},
                                 std::pair{&x, &x}}) {
        const SiftMatchResult r = MatchSift(*a, *b);
        EXPECT_LE(r.matches, r.candidates) << "seed " << seed;
        EXPECT_GE(r.similarity, 0.0) << "seed " << seed;
        EXPECT_LE(r.similarity, 1.0) << "seed " << seed << " |a| " << a->size()
                                     << " |b| " << b->size();
      }
    }
  }
}

TEST(Sift, ObjectEntryDropsSimilarity) {
  // A sprite appearing in an otherwise identical scene must lower the match
  // ratio — this is exactly the baseline's event signal.
  media::Plane before = SceneWithBlobs(200, 150, 14, 10);
  media::Plane after = before;
  media::Frame frame(200, 150);
  frame.y() = after;
  synth::DrawObject(frame, synth::ObjectClass::kCar,
                    synth::Box{60, 60, 80, 40}, synth::SpriteStyle{});
  after = frame.y();

  const auto kp_before = ExtractSift(before);
  const auto kp_after = ExtractSift(after);
  const double self = MatchSift(kp_before, kp_before).similarity;
  const double changed = MatchSift(kp_before, kp_after).similarity;
  EXPECT_LT(changed, self);
}

TEST(Sift, DeterministicExtraction) {
  const media::Plane img = SceneWithBlobs(160, 120, 12, 11);
  const auto a = ExtractSift(img);
  const auto b = ExtractSift(img);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].response, b[i].response);
  }
}

}  // namespace
}  // namespace sieve::vision
