#include "vision/sift.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "media/image_ops.h"

namespace sieve::vision {

namespace {

/// One octave of the scale space: Gaussian levels and their differences.
struct Octave {
  std::vector<media::Plane> gauss;             // levels_per_octave + 3
  std::vector<std::vector<float>> dog;         // gauss.size() - 1 planes
  int width = 0, height = 0;
  float base_scale = 1.0f;                     // sampling scale vs original
};

std::vector<float> Subtract(const media::Plane& a, const media::Plane& b) {
  std::vector<float> out(a.size());
  const std::uint8_t* pa = a.data();
  const std::uint8_t* pb = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = float(pa[i]) - float(pb[i]);
  }
  return out;
}

Octave BuildOctave(const media::Plane& base, const SiftParams& params,
                   float base_scale) {
  Octave oct;
  oct.width = base.width();
  oct.height = base.height();
  oct.base_scale = base_scale;
  const int num_gauss = params.levels_per_octave + 3;
  const double k = std::pow(2.0, 1.0 / params.levels_per_octave);
  oct.gauss.reserve(std::size_t(num_gauss));
  oct.gauss.push_back(media::GaussianBlur(base, params.base_sigma * 0.5));
  double sigma = params.base_sigma;
  for (int i = 1; i < num_gauss; ++i) {
    // Incremental blur: sigma_extra^2 = (sigma*k)^2 - sigma^2.
    const double extra = sigma * std::sqrt(k * k - 1.0);
    oct.gauss.push_back(media::GaussianBlur(oct.gauss.back(), extra));
    sigma *= k;
  }
  oct.dog.reserve(oct.gauss.size() - 1);
  for (std::size_t i = 0; i + 1 < oct.gauss.size(); ++i) {
    oct.dog.push_back(Subtract(oct.gauss[i + 1], oct.gauss[i]));
  }
  return oct;
}

float DogAt(const Octave& oct, std::size_t level, int x, int y) {
  x = std::clamp(x, 0, oct.width - 1);
  y = std::clamp(y, 0, oct.height - 1);
  return oct.dog[level][std::size_t(y) * std::size_t(oct.width) + std::size_t(x)];
}

bool IsExtremum(const Octave& oct, std::size_t level, int x, int y) {
  const float v = DogAt(oct, level, x, y);
  const bool maximum = v > 0;
  for (int dl = -1; dl <= 1; ++dl) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dl == 0 && dx == 0 && dy == 0) continue;
        const float n = DogAt(oct, std::size_t(std::int64_t(level) + dl), x + dx, y + dy);
        if (maximum ? (n >= v) : (n <= v)) return false;
      }
    }
  }
  return true;
}

/// Lowe's edge rejection: ratio of principal curvatures of the DoG surface.
bool PassesEdgeTest(const Octave& oct, std::size_t level, int x, int y,
                    float edge_ratio) {
  const float dxx = DogAt(oct, level, x + 1, y) + DogAt(oct, level, x - 1, y) -
                    2 * DogAt(oct, level, x, y);
  const float dyy = DogAt(oct, level, x, y + 1) + DogAt(oct, level, x, y - 1) -
                    2 * DogAt(oct, level, x, y);
  const float dxy = (DogAt(oct, level, x + 1, y + 1) - DogAt(oct, level, x - 1, y + 1) -
                     DogAt(oct, level, x + 1, y - 1) + DogAt(oct, level, x - 1, y - 1)) /
                    4.0f;
  const float trace = dxx + dyy;
  const float det = dxx * dyy - dxy * dxy;
  if (det <= 0) return false;
  const float r = edge_ratio;
  return trace * trace / det < (r + 1) * (r + 1) / r;
}

/// 4x4 spatial grid x 8 orientation bins over a 16x16 patch of the Gaussian
/// level the keypoint was detected in.
void ComputeDescriptor(const media::Plane& gauss, int cx, int cy,
                       std::array<float, kSiftDescriptorDims>& desc) {
  desc.fill(0.0f);
  constexpr int kPatch = 8;  // half-size
  constexpr float kTwoPi = 6.28318530718f;
  for (int dy = -kPatch; dy < kPatch; ++dy) {
    for (int dx = -kPatch; dx < kPatch; ++dx) {
      const int px = cx + dx, py = cy + dy;
      const float gx = float(gauss.at_clamped(px + 1, py)) -
                       float(gauss.at_clamped(px - 1, py));
      const float gy = float(gauss.at_clamped(px, py + 1)) -
                       float(gauss.at_clamped(px, py - 1));
      const float mag = std::sqrt(gx * gx + gy * gy);
      if (mag <= 0) continue;
      float angle = std::atan2(gy, gx);
      if (angle < 0) angle += kTwoPi;
      const int bin = std::min(7, int(angle / kTwoPi * 8.0f));
      const int cell_x = (dx + kPatch) / 4;  // 0..3
      const int cell_y = (dy + kPatch) / 4;  // 0..3
      // Gaussian spatial weighting centered on the keypoint.
      const float w = std::exp(-(float(dx * dx + dy * dy)) / (2.0f * 36.0f));
      desc[std::size_t((cell_y * 4 + cell_x) * 8 + bin)] += mag * w;
    }
  }
  // Normalize, clamp (illumination robustness), renormalize.
  auto normalize = [&desc] {
    float norm = 0;
    for (float v : desc) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-6f) {
      for (float& v : desc) v /= norm;
    }
  };
  normalize();
  for (float& v : desc) v = std::min(v, 0.2f);
  normalize();
}

}  // namespace

std::vector<SiftKeypoint> ExtractSift(const media::Plane& luma,
                                      const SiftParams& params) {
  std::vector<SiftKeypoint> keypoints;
  media::Plane base = luma;
  float base_scale = 1.0f;
  for (int o = 0; o < params.max_octaves; ++o) {
    if (base.width() < 32 || base.height() < 32) break;
    const Octave oct = BuildOctave(base, params, base_scale);
    const double k = std::pow(2.0, 1.0 / params.levels_per_octave);
    for (std::size_t level = 1; level + 1 < oct.dog.size(); ++level) {
      for (int y = 1; y < oct.height - 1; ++y) {
        for (int x = 1; x < oct.width - 1; ++x) {
          const float v = DogAt(oct, level, x, y);
          if (std::abs(v) < params.contrast_threshold) continue;
          if (!IsExtremum(oct, level, x, y)) continue;
          if (!PassesEdgeTest(oct, level, x, y, params.edge_ratio)) continue;
          SiftKeypoint kp;
          kp.x = float(x) * base_scale;
          kp.y = float(y) * base_scale;
          kp.octave = o;
          kp.scale = float(params.base_sigma * std::pow(k, double(level))) * base_scale;
          kp.response = std::abs(v);
          ComputeDescriptor(oct.gauss[level], x, y, kp.descriptor);
          // Degenerate patches (no gradient energy) produce a zero
          // descriptor; they cannot be matched, so drop them.
          float norm = 0;
          for (float d : kp.descriptor) norm += d * d;
          if (norm < 0.5f) continue;
          keypoints.push_back(std::move(kp));
        }
      }
    }
    base = media::Downsample2x(base);
    base_scale *= 2.0f;
  }
  if (keypoints.size() > params.max_keypoints) {
    std::partial_sort(keypoints.begin(),
                      keypoints.begin() + std::ptrdiff_t(params.max_keypoints),
                      keypoints.end(),
                      [](const SiftKeypoint& a, const SiftKeypoint& b) {
                        return a.response > b.response;
                      });
    keypoints.resize(params.max_keypoints);
  }
  return keypoints;
}

SiftMatchResult MatchSift(const std::vector<SiftKeypoint>& a,
                          const std::vector<SiftKeypoint>& b, float ratio) {
  SiftMatchResult result;
  if (a.empty() || b.empty()) {
    // Featureless frames: treat as unchanged (both empty) or changed (one
    // side suddenly has features).
    result.similarity = a.size() == b.size() ? 1.0 : 0.0;
    return result;
  }
  result.candidates = a.size();
  for (const auto& ka : a) {
    float best = std::numeric_limits<float>::max();
    float second = std::numeric_limits<float>::max();
    for (const auto& kb : b) {
      float dist = 0;
      for (int i = 0; i < kSiftDescriptorDims; ++i) {
        const float d = ka.descriptor[std::size_t(i)] - kb.descriptor[std::size_t(i)];
        dist += d * d;
        if (dist >= second) break;
      }
      if (dist < best) {
        second = best;
        best = dist;
      } else if (dist < second) {
        second = dist;
      }
    }
    // The ratio test needs a second neighbour: against a lone keypoint the
    // nearest one is the match.
    if (b.size() < 2 || (second > 0 && best < ratio * ratio * second)) {
      ++result.matches;
    }
  }
  result.similarity = double(result.matches) / double(result.candidates);
  return result;
}

}  // namespace sieve::vision
