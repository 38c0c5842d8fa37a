// The reference object-detection NN substitute.
//
// The paper treats YOLOv3 as a black box that maps a decompressed frame to
// a set of object labels at a fixed per-frame cost. We reproduce that
// contract with a seeded CNN backbone producing an embedding plus a
// nearest-centroid head calibrated on labelled training frames: calibration
// computes one centroid per label set seen in training; prediction embeds
// the frame and returns the nearest centroid's label set. On the synthetic
// datasets (distinct class silhouettes/chroma) this yields near-oracle
// labels, and the backbone's measured per-frame latency feeds the
// end-to-end throughput model. The substitution is documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "media/frame.h"
#include "nn/network.h"
#include "synth/ground_truth.h"
#include "synth/labels.h"

namespace sieve::nn {

struct ClassifierParams {
  int input_size = 96;       ///< frames resized to input_size^2 (even)
  int embedding_dim = 64;
  std::uint64_t seed = 0x51E5Eull;  // "SiEVE"
};

/// Embedding-based frame classifier with centroid calibration.
///
/// Const-thread-safe once fitted: Embed/Predict/Evaluate only read the
/// network and centroids (conv scratch is thread-local inside the layers),
/// so one instance may serve every runtime session concurrently. Fit() is a
/// mutation and must not race with predictions.
///
/// Fit and Evaluate embed their frames in parallel on
/// runtime::SharedExecutor() (one ParallelFor over the sampled frames, into
/// an index-addressed vector) and then reduce serially in frame order, so
/// their results are bit-identical to a one-thread run. Neither may be
/// called from a SharedExecutor task: ParallelFor's caller waits without
/// helping to run tasks, so a pool worker blocking on it can deadlock the
/// pool.
class FrameClassifier {
 public:
  explicit FrameClassifier(ClassifierParams params = {});

  /// Build the network input tensor for a frame (resize + YUV->3-channel
  /// float). This is the first half of Embed; the runtime's edge tier uses
  /// it to start a split forward pass (network().ForwardPrefix).
  Tensor InputTensor(const media::Frame& frame) const;

  /// Embed one frame (resize + YUV->3-channel float + backbone). `precision`
  /// selects the fp32 (default) or int8-quantized backbone pass.
  std::vector<float> Embed(const media::Frame& frame,
                           Precision precision = Precision::kFp32) const;

  /// The centroid match alone: label set nearest to an already-computed
  /// embedding. Predict(frame) == PredictFromEmbedding(Embed(frame)); the
  /// runtime's cloud tier calls this after finishing a split forward pass
  /// (network().ForwardSuffix on a received activation).
  Expected<synth::LabelSet> PredictFromEmbedding(
      const std::vector<float>& embedding) const;

  /// How decisively the centroid match would classify `embedding`: the
  /// euclidean gap between the second-nearest and nearest centroid,
  /// normalized by twice the embedding norm — (d2 - d1) / (2 * ||e||).
  /// Normalizing by ||e|| (not by the distances) makes the margin directly
  /// comparable to the *relative embedding error* of quantized inference: a
  /// perturbation of relative size r moves each distance by at most
  /// r * ||e||, so the nearest centroid can only change when r >= margin.
  /// Frames below the int8 noise floor (~1-2% relative error, see
  /// docs/perf.md) can legitimately flip between precisions; the int8
  /// agreement gates (tests, bench) therefore measure agreement over frames
  /// whose fp32 margin clears the floor, and report the raw number
  /// alongside. Returns 0 when unfitted, 1 with a single centroid.
  double PredictionMargin(const std::vector<float>& embedding) const;

  /// Batched cloud-side prediction: run layers [split, N) over many
  /// sessions' cut-point activations in one ForwardSuffixBatch pass, then
  /// match each resulting embedding against the centroids. Element i of the
  /// result is bit-identical to
  /// PredictFromEmbedding(network().ForwardSuffix(activations[i], split)) —
  /// the fleet batcher relies on this to keep batched serving
  /// indistinguishable from per-frame serving. All activations must share
  /// the shape ShapeAtLayer(split).
  std::vector<Expected<synth::LabelSet>> PredictBatch(
      std::vector<Tensor> activations, std::size_t split,
      Precision precision = Precision::kFp32) const;

  /// Calibrate centroids from labelled frames. `stride` subsamples the
  /// training video (every stride-th frame) to bound calibration cost. The
  /// frames are embedded in parallel on SharedExecutor() (see the class
  /// comment: never call this from a SharedExecutor task); each centroid is
  /// the frame-order mean, the same floats at any thread count.
  Status Fit(const std::vector<media::Frame>& frames,
             const synth::GroundTruth& truth, std::size_t stride = 10);

  /// Predict the label set of a frame (empty LabelSet when the scene is
  /// empty). Requires Fit() first. Centroids are always calibrated at fp32
  /// (Fit); an int8 Predict matches its embedding against the same
  /// centroids, which is exactly what a mixed-precision fleet sharing one
  /// classifier does.
  Expected<synth::LabelSet> Predict(const media::Frame& frame,
                                    Precision precision = Precision::kFp32) const;

  bool fitted() const noexcept { return !centroids_.empty(); }
  std::size_t centroid_count() const noexcept { return centroids_.size(); }
  const Network& network() const noexcept { return network_; }

  /// Classification accuracy over a labelled video (every stride-th frame).
  /// Embeds on SharedExecutor() like Fit, with the same restriction.
  double Evaluate(const std::vector<media::Frame>& frames,
                  const synth::GroundTruth& truth, std::size_t stride = 10,
                  Precision precision = Precision::kFp32) const;

 private:
  /// Embeddings of frames 0, stride, 2*stride, ... below `count`, computed
  /// on SharedExecutor(); element j is frame j * stride.
  std::vector<std::vector<float>> EmbedEvery(
      const std::vector<media::Frame>& frames, std::size_t count,
      std::size_t stride, Precision precision) const;

  ClassifierParams params_;
  Network network_;
  std::map<std::uint8_t, std::vector<float>> centroids_;  // label bits -> centroid
};

}  // namespace sieve::nn
