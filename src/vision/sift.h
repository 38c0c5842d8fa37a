// Simplified SIFT: scale-space keypoints + gradient-histogram descriptors.
//
// This is the paper's second baseline (NoScope-style "SIFT feature
// matching"): decode every frame, extract features, match against the
// previous frame, and declare an event when the match ratio drops. The
// implementation follows Lowe's pipeline — Gaussian pyramid, DoG extrema,
// contrast and edge rejection, 4x4x8 gradient histograms — with one
// simplification suited to fixed surveillance cameras: descriptors are not
// rotated to a dominant orientation (the camera never rotates), which saves
// a third of the extraction cost without changing matching behaviour on
// static scenes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "media/frame.h"

namespace sieve::vision {

inline constexpr int kSiftDescriptorDims = 128;

struct SiftKeypoint {
  float x = 0;       ///< position at base-image scale
  float y = 0;
  int octave = 0;
  float scale = 0;   ///< sigma of the level the point was found at
  float response = 0;
  std::array<float, kSiftDescriptorDims> descriptor{};
};

struct SiftParams {
  int max_octaves = 4;
  int levels_per_octave = 3;       ///< sampled DoG levels per octave
  float base_sigma = 1.6f;
  float contrast_threshold = 6.0f; ///< min |DoG| response
  float edge_ratio = 10.0f;        ///< Hessian edge rejection (Lowe's r)
  std::size_t max_keypoints = 400; ///< keep strongest N
};

/// Extract keypoints + descriptors from a luma plane.
std::vector<SiftKeypoint> ExtractSift(const media::Plane& luma,
                                      const SiftParams& params = {});

struct SiftMatchResult {
  std::size_t matches = 0;      ///< keypoints of `a` that found a match
  std::size_t candidates = 0;   ///< |a| (0 when either side is empty)
  /// matches / candidates, in [0, 1]; 1.0 when both frames are featureless
  /// (nothing changed as far as SIFT can tell), 0.0 when only one is.
  double similarity = 1.0;
};

/// Brute-force nearest-neighbour matching of every keypoint of `a` against
/// `b` with Lowe's ratio test (applied when `b` has at least two keypoints).
SiftMatchResult MatchSift(const std::vector<SiftKeypoint>& a,
                          const std::vector<SiftKeypoint>& b,
                          float ratio = 0.8f);

}  // namespace sieve::vision
