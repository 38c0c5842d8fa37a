// Frame-to-frame similarity signals and threshold calibration.
//
// Both image-similarity baselines reduce to: a per-frame scalar "change
// signal" vs the previous frame, plus a threshold that turns the signal into
// select/skip decisions. Calibration picks the threshold that yields a target
// sampling rate on a training video — mirroring how the paper tunes baseline
// thresholds "to give the same sampling rate as SiEVE".
#pragma once

#include <cstddef>
#include <vector>

#include "media/frame.h"
#include "vision/sift.h"

namespace sieve::vision {

/// Per-frame change signal for a whole video: signal[0] == 0; signal[i] is
/// the difference measure between frame i and frame i-1 (higher == more
/// change).
std::vector<double> MseChangeSignal(const std::vector<media::Frame>& frames);

/// SIFT dissimilarity signal: 1 - match similarity between consecutive
/// frames. Descriptors for each frame are extracted once.
std::vector<double> SiftChangeSignal(const std::vector<media::Frame>& frames,
                                     const SiftParams& params = {});

/// Streaming versions: push frames one at a time.
class MseSignal {
 public:
  /// Change of `frame` vs the previously pushed frame (0 for the first).
  double Push(const media::Frame& frame);

 private:
  media::Frame prev_;
  bool has_prev_ = false;
};

class SiftSignal {
 public:
  explicit SiftSignal(SiftParams params = {}) : params_(params) {}
  double Push(const media::Frame& frame);

 private:
  SiftParams params_;
  std::vector<SiftKeypoint> prev_;
  bool has_prev_ = false;
};

/// Frames selected by thresholding a change signal: frame 0 always selected
/// (bootstrap), then every frame whose signal exceeds `threshold`.
std::vector<std::size_t> SelectByThreshold(const std::vector<double>& signal,
                                           double threshold);

/// The threshold whose SelectByThreshold count is as close as possible to
/// target_count: exactly target_count when the signal values around the cut
/// are distinct. When a run of equal values straddles the cut, the nearer of
/// the two reachable counts (all of the run or none of it) wins, the smaller
/// on a draw. Returns +inf when target_count <= 1 (frame 0 alone) and a
/// select-everything threshold when the target covers every frame; signals
/// are non-negative.
double CalibrateThreshold(const std::vector<double>& signal,
                          std::size_t target_count);

}  // namespace sieve::vision
