#include "codec/analysis.h"

#include <algorithm>
#include <cmath>

#include "codec/motion.h"
#include "common/simd/kernels.h"
#include "media/image_ops.h"
#include "media/metrics.h"
#include "runtime/executor.h"

namespace sieve::codec {

namespace {

constexpr int kAnalysisBlock = 8;  // MB size at half resolution
constexpr int kAnalysisArea = kAnalysisBlock * kAnalysisBlock;
static_assert((kAnalysisArea & (kAnalysisArea - 1)) == 0,
              "the exact integer intra cost needs a power-of-two block area");
static_assert(kAnalysisBlock == simd::kBlockDim,
              "the analysis kernels work on 8x8 blocks");

/// Total absolute deviation of a block from its mean: a SATD-like proxy for
/// intra coding cost that grows with texture.
///
/// Interior blocks use the kernel table's exact integer form sum|n*x - S| / n
/// (n pixels, S their sum). It is bit-identical to accumulating |x - S/n| in
/// doubles: n = 64 is a power of two, so every term and partial sum of that
/// double loop is a multiple of 1/64 below 2^20 and is represented exactly.
double BlockIntraCost(const simd::KernelTable& kernels, const media::Plane& p,
                      int bx, int by) {
  constexpr int size = kAnalysisBlock;
  if (p.ContainsRect(bx, by, size, size)) {
    return double(kernels.intra_dev8x8(p.row(by) + bx, p.width())) /
           double(kAnalysisArea);
  }
  double sum = 0;
  int n = 0;
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      sum += p.at_clamped(bx + x, by + y);
      ++n;
    }
  }
  const double mean = sum / std::max(1, n);
  double dev = 0;
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      dev += std::abs(double(p.at_clamped(bx + x, by + y)) - mean);
    }
  }
  return dev;
}

/// SAD of a block at a fixed motion vector with a per-pixel noise deadzone.
double DeadzoneSad(const simd::KernelTable& kernels, const media::Plane& cur,
                   const media::Plane& ref, int bx, int by, MotionVector mv,
                   int deadzone) {
  constexpr int size = kAnalysisBlock;
  const int sx = bx + mv.dx, sy = by + mv.dy;
  if (deadzone >= 0 && deadzone <= 255 && cur.ContainsRect(bx, by, size, size) &&
      ref.ContainsRect(sx, sy, size, size)) {
    // Integer sums below 2^53 are exact in double, so the kernel's integer
    // sum converted once equals the clamped loop below.
    return double(kernels.deadzone_sad8x8(cur.row(by) + bx, cur.width(),
                                          ref.row(sy) + sx, ref.width(),
                                          deadzone));
  }
  double acc = 0;
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const int d = std::abs(int(cur.at_clamped(bx + x, by + y)) -
                             int(ref.at_clamped(sx + x, sy + y)));
      if (d > deadzone) acc += d - deadzone;
    }
  }
  return acc;
}

struct RowCost {
  double intra = 0;
  double inter = 0;
};

/// Costs for one block row. Rows are independent (the MV predictor resets
/// at the start of every row), which is what lets CostsBetween fan them out.
RowCost AnalyzeBlockRow(const media::Plane& cur, const media::Plane* prev,
                        const AnalysisParams& params, int mbs_x, int my) {
  const int bs = kAnalysisBlock;
  const simd::KernelTable& kernels = simd::ActiveKernels();
  RowCost out;
  MotionVector predictor{0, 0};
  for (int mx = 0; mx < mbs_x; ++mx) {
    const int bx = mx * bs, by = my * bs;
    const double ic = BlockIntraCost(kernels, cur, bx, by) + 1.0;
    out.intra += ic;
    if (prev != nullptr) {
      const MotionResult mr =
          DiamondSearch(cur, *prev, bx, by, bs, bs, params.search_range,
                        predictor, params.lambda);
      predictor = mr.mv;
      // Residual energy at the chosen vector, noise-tolerant; a real
      // encoder would fall back to intra coding for an MB whose inter
      // cost exceeds its intra cost, so clamp identically to x264.
      const double dz_sad = DeadzoneSad(kernels, cur, *prev, bx, by, mr.mv,
                                        params.noise_deadzone);
      out.inter += std::min(dz_sad, ic);
    }
  }
  return out;
}

FrameCost CostsBetween(const media::Plane& cur, const media::Plane* prev,
                       const AnalysisParams& params, runtime::Executor* executor) {
  FrameCost out;
  const int bs = kAnalysisBlock;
  const int mbs_x = std::max(1, (cur.width() + bs - 1) / bs);
  const int mbs_y = std::max(1, (cur.height() + bs - 1) / bs);
  // Per-row partials reduced in row order below: the serial and parallel
  // paths sum in the same order, so results are identical for any executor.
  std::vector<RowCost> rows(static_cast<std::size_t>(mbs_y));
  if (executor != nullptr && executor->concurrency() > 1 && mbs_y > 1) {
    executor->ParallelFor(std::size_t(mbs_y), [&](std::size_t my) {
      rows[my] = AnalyzeBlockRow(cur, prev, params, mbs_x, int(my));
    });
  } else {
    for (int my = 0; my < mbs_y; ++my) {
      rows[std::size_t(my)] = AnalyzeBlockRow(cur, prev, params, mbs_x, my);
    }
  }
  double intra = 0, inter = 0;
  for (const RowCost& r : rows) {
    intra += r.intra;
    inter += r.inter;
  }
  const double n = double(mbs_x) * double(mbs_y);
  out.intra_cost = intra / n;
  out.inter_cost = prev != nullptr ? inter / n : out.intra_cost;
  return out;
}

/// The plane the costs are computed on: the half-resolution luma, or the
/// full-resolution luma itself.
media::Plane AnalysisPlane(const media::Frame& frame,
                           const AnalysisParams& params) {
  return params.half_resolution ? media::Downsample2x(frame.y()) : frame.y();
}

}  // namespace

FrameCost FrameAnalyzer::Push(const media::Frame& frame) {
  media::Plane cur = AnalysisPlane(frame, params_);
  const FrameCost cost =
      CostsBetween(cur, has_prev_ ? &prev_ : nullptr, params_, executor_);
  prev_ = std::move(cur);
  has_prev_ = true;
  return cost;
}

void FrameAnalyzer::Reset() {
  prev_ = media::Plane();
  has_prev_ = false;
}

std::vector<FrameCost> AnalyzeVideo(const media::RawVideo& video,
                                    const AnalysisParams& params) {
  // Frame i's cost reads only the analysis planes of frames i - 1 and i, so
  // the pass fans out over frames in two phases: every plane once, then
  // every cost. Each cost is the serial FrameAnalyzer's own computation
  // (rows summed in row order), so the result is bit-identical to pushing
  // the frames one by one.
  const std::size_t n = video.frames.size();
  runtime::Executor& executor = runtime::SharedExecutor();
  std::vector<media::Plane> planes(n);
  executor.ParallelFor(n, [&](std::size_t i) {
    planes[i] = AnalysisPlane(video.frames[i], params);
  });
  std::vector<FrameCost> costs(n);
  executor.ParallelFor(n, [&](std::size_t i) {
    costs[i] = CostsBetween(planes[i], i > 0 ? &planes[i - 1] : nullptr,
                            params, nullptr);
  });
  return costs;
}

double ScenecutBias(int scenecut) noexcept {
  // Cubic sensitivity curve: threshold (1 - bias) = (1 - sc/400)^3.
  // sc=40 (x264 default) fires only on near-full-frame changes (ratio .73);
  // sc=250 fires on localized small-object motion (ratio .056); sc=400
  // fires on any nonzero motion — matching the paper's tuned range.
  const double t = 1.0 - std::clamp(scenecut, 0, 400) / 400.0;
  return 1.0 - t * t * t;
}

int EffectiveMinKeyint(const KeyframeParams& params) noexcept {
  if (params.min_keyint > 0) return params.min_keyint;
  return std::clamp(params.gop_size / 10, 2, 12);
}

bool IsKeyframe(const FrameCost& cost, const KeyframeParams& params,
                std::size_t frames_since_keyframe) noexcept {
  if (frames_since_keyframe == 0) return true;  // start of stream
  if (params.gop_size > 0 &&
      frames_since_keyframe >= std::size_t(params.gop_size)) {
    return true;
  }
  if (frames_since_keyframe < std::size_t(EffectiveMinKeyint(params))) {
    return false;
  }
  const double bias = ScenecutBias(params.scenecut);
  return cost.inter_cost > (1.0 - bias) * cost.intra_cost;
}

std::vector<bool> PlaceKeyframes(const std::vector<FrameCost>& costs,
                                 const KeyframeParams& params) {
  std::vector<bool> keyframes(costs.size(), false);
  std::size_t since = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const bool is_key = i == 0 || IsKeyframe(costs[i], params, since);
    keyframes[i] = is_key;
    since = is_key ? 1 : since + 1;
  }
  return keyframes;
}

}  // namespace sieve::codec
