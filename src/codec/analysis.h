// Look-ahead frame analysis and keyframe placement.
//
// This is the encoder's brain and the core of SiEVE's semantic encoding. For
// every frame we compute an intra cost (how expensive the frame is to code
// standalone) and an inter cost (how expensive relative to its predecessor,
// after motion compensation). x264's scenecut rule then declares an I-frame
// when inter cost approaches intra cost:
//
//     I-frame  iff  inter_cost > (1 - bias) * intra_cost,
//     bias = scenecut / 400      (higher scenecut => more I-frames)
//
// plus the GOP bound (force I after gop_size frames) and a minimum keyframe
// interval. Crucially the per-frame costs depend only on the video — not on
// (gop, scenecut) — so SiEVE's offline grid search analyzes once and replays
// keyframe placement per configuration at negligible cost, exactly like
// x264's lookahead replays its decision, and encoder and tuner agree by
// construction.
//
// Like x264's lookahead, analysis runs on half-resolution frames with a
// small diamond search. Its three inner loops (block texture, deadzone SAD
// and the 2x decimation) are simd::KernelTable entries, so the offline pass
// and the live encoder's per-frame Push share the same kernels.
//
// Two ways to go parallel, one per caller:
//   * AnalyzeVideo (the tuner's offline pass over a whole history) fans out
//     over frames on runtime::SharedExecutor(): every frame is downsampled
//     once, then frame i's cost is computed from the (i - 1, i) pair.
//   * FrameAnalyzer::set_executor (the streaming encoder, which sees one
//     frame at a time) fans one frame's block rows out instead.
// Both reduce in the serial loop's order, so costs are bit-identical to
// pushing the frames one by one through a serial FrameAnalyzer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "media/frame.h"

namespace sieve::runtime {
class Executor;
}

namespace sieve::codec {

/// Per-frame analysis costs, normalized per macroblock so thresholds are
/// resolution-independent.
struct FrameCost {
  double intra_cost = 0.0;  ///< mean per-MB intra coding cost proxy
  double inter_cost = 0.0;  ///< mean per-MB motion-compensated cost proxy
};

struct AnalysisParams {
  bool half_resolution = true;  ///< analyze at half res (x264 lookahead style)
  int search_range = 8;         ///< motion search range at analysis scale
  std::uint32_t lambda = 4;     ///< mv cost weight
  /// Per-pixel absolute differences at or below this value do not count
  /// toward the inter cost (temporal noise tolerance, analogous to x264's
  /// noise-reduction deadzone). Keeps frame-wide sensor noise from masking
  /// localized object motion.
  int noise_deadzone = 4;
};

/// Analysis costs for every frame of a video (frame 0 gets inter == intra:
/// it has no predecessor and always becomes an I-frame anyway). Runs frame-
/// parallel on runtime::SharedExecutor() (inline when called from one of its
/// workers); the result equals a serial FrameAnalyzer loop bit for bit.
std::vector<FrameCost> AnalyzeVideo(const media::RawVideo& video,
                                    const AnalysisParams& params = {});

/// Streaming analyzer: feed frames one at a time (the live encoder path).
class FrameAnalyzer {
 public:
  explicit FrameAnalyzer(AnalysisParams params = {}) : params_(params) {}

  /// Cost of `frame` relative to the previously pushed frame.
  FrameCost Push(const media::Frame& frame);
  void Reset();

  /// Fan block-row analysis out over `executor` (null or concurrency 1 =
  /// serial). Costs are computed as per-row partials reduced in row order,
  /// so the result is identical whatever the executor.
  void set_executor(runtime::Executor* executor) noexcept {
    executor_ = executor;
  }

 private:
  AnalysisParams params_;
  runtime::Executor* executor_ = nullptr;
  media::Plane prev_;  // analysis-scale luma of the previous frame
  bool has_prev_ = false;
};

/// Keyframe decision parameters (the two knobs SiEVE tunes + min interval).
struct KeyframeParams {
  int gop_size = 250;   ///< max frames between I-frames (x264 --keyint)
  int scenecut = 40;    ///< 0..400 sensitivity (x264 --scenecut, extended range)
  /// Min frames between I-frames; 0 = auto (gop_size/10 clamped to [2, 12],
  /// x264's --min-keyint auto rule). Suppresses redundant keyframes while
  /// one object's motion is ongoing.
  int min_keyint = 0;
};

/// Resolve the auto rule for min_keyint.
int EffectiveMinKeyint(const KeyframeParams& params) noexcept;

/// Scenecut bias in [0, 1] for a scenecut parameter in [0, 400]. The curve
/// is calibrated so the paper's operating range (sc in [20, 250]) spans the
/// spectrum from "only full-frame content changes" down to "a small object
/// entering a long-shot scene"; it is strictly monotone in the parameter.
double ScenecutBias(int scenecut) noexcept;

/// The per-frame decision given costs and frames since the last keyframe.
bool IsKeyframe(const FrameCost& cost, const KeyframeParams& params,
                std::size_t frames_since_keyframe) noexcept;

/// Replay keyframe placement over a whole cost sequence. Frame 0 is always a
/// keyframe. Returns one flag per frame.
std::vector<bool> PlaceKeyframes(const std::vector<FrameCost>& costs,
                                 const KeyframeParams& params);

}  // namespace sieve::codec
