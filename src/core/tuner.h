// The offline semantic-encoder tuner (Section IV, Figure 2).
//
// Given labelled historical video from a camera, the tuner explores a k x l
// grid of (GOP size, scenecut threshold) configurations, scores each by the
// F1 of event-detection accuracy and filtering rate, and stores the argmax
// in a per-camera lookup table used for all future live encoding.
//
// One analysis pass computes per-frame costs (codec::AnalyzeVideo, frame-
// parallel on the shared pool); every grid cell then replays keyframe
// placement in O(frames) — the encoder makes the identical decision inline,
// so tuner predictions and real encodes agree exactly (tested in
// tests/core/tuner_test.cpp). Tuning several cameras from shared-pool tasks
// is safe: the nested analysis runs inline on the calling worker.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "codec/analysis.h"
#include "common/status.h"
#include "core/metrics.h"
#include "media/frame.h"
#include "synth/ground_truth.h"

namespace sieve::core {

/// Grid of configurations to explore (defaults: the paper's k = l = 5).
struct TunerGrid {
  std::vector<int> gop_sizes{100, 250, 500, 1000, 5000};
  std::vector<int> scenecuts{20, 40, 100, 200, 250};

  /// Wider scenecut ladder for long-shot feeds with very small objects: a
  /// small object changes a small fraction of macroblocks, so its inter/intra
  /// ratio is bounded by its area fraction and the usable thresholds crowd
  /// into the high-sensitivity end of the scale.
  static TunerGrid Extended() {
    TunerGrid g;
    g.scenecuts = {40, 100, 200, 250, 300, 315, 325, 340, 350};
    return g;
  }
};

/// One evaluated grid cell.
struct TuningCandidate {
  int gop_size = 0;
  int scenecut = 0;
  DetectionQuality quality;
};

struct TuningResult {
  TuningCandidate best;
  std::vector<TuningCandidate> all;  ///< every cell, grid order
};

/// Run the Section-IV grid search on a labelled training video.
TuningResult TuneEncoder(const media::RawVideo& training_video,
                         const synth::GroundTruth& truth,
                         const TunerGrid& grid = {},
                         const codec::AnalysisParams& analysis = {});

/// Same, starting from precomputed analysis costs (lets callers share one
/// analysis pass across experiments).
TuningResult TuneFromCosts(const std::vector<codec::FrameCost>& costs,
                           const synth::GroundTruth& truth,
                           const TunerGrid& grid = {});

/// Per-camera lookup table of tuned parameters (Figure 1's "best
/// configuration" store). Serializes to a simple text format.
class CameraParameterTable {
 public:
  void Set(const std::string& camera_id, codec::KeyframeParams params);
  Expected<codec::KeyframeParams> Get(const std::string& camera_id) const;
  bool Contains(const std::string& camera_id) const;
  std::size_t size() const noexcept { return table_.size(); }

  std::string Serialize() const;
  static Expected<CameraParameterTable> Deserialize(const std::string& text);

 private:
  std::map<std::string, codec::KeyframeParams> table_;
};

}  // namespace sieve::core
