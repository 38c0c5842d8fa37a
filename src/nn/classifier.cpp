#include "nn/classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "media/image_ops.h"
#include "runtime/executor.h"

namespace sieve::nn {

FrameClassifier::FrameClassifier(ClassifierParams params)
    : params_(params),
      network_(MakeBackbone(params.input_size, params.embedding_dim,
                            params.seed)) {}

Tensor FrameClassifier::InputTensor(const media::Frame& frame) const {
  const int n = params_.input_size;
  const media::Frame resized =
      (frame.width() == n && frame.height() == n) ? frame
                                                  : media::ResizeFrame(frame, n, n);
  Tensor input(Shape{3, n, n});
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      input.at(0, y, x) = float(resized.y().at(x, y)) / 255.0f - 0.5f;
      input.at(1, y, x) =
          float(resized.u().at_clamped(x / 2, y / 2)) / 255.0f - 0.5f;
      input.at(2, y, x) =
          float(resized.v().at_clamped(x / 2, y / 2)) / 255.0f - 0.5f;
    }
  }
  return input;
}

std::vector<float> FrameClassifier::Embed(const media::Frame& frame,
                                          Precision precision) const {
  return network_.Forward(InputTensor(frame), precision).values();
}

std::vector<std::vector<float>> FrameClassifier::EmbedEvery(
    const std::vector<media::Frame>& frames, std::size_t count,
    std::size_t stride, Precision precision) const {
  std::vector<std::vector<float>> embeddings((count + stride - 1) / stride);
  runtime::SharedExecutor().ParallelFor(
      embeddings.size(), [&](std::size_t j) {
        embeddings[j] = Embed(frames[j * stride], precision);
      });
  return embeddings;
}

Status FrameClassifier::Fit(const std::vector<media::Frame>& frames,
                            const synth::GroundTruth& truth,
                            std::size_t stride) {
  if (frames.size() != truth.frame_count()) {
    return Status::Invalid("Fit: frames and ground truth length mismatch");
  }
  if (frames.empty()) return Status::Invalid("Fit: no training frames");
  stride = std::max<std::size_t>(1, stride);

  const std::vector<std::vector<float>> embeddings =
      EmbedEvery(frames, frames.size(), stride, Precision::kFp32);
  // Summed serially in frame order: the centroids are the same floats
  // whichever thread embedded which frame.
  std::map<std::uint8_t, std::vector<float>> sums;
  std::map<std::uint8_t, std::size_t> counts;
  for (std::size_t j = 0; j < embeddings.size(); ++j) {
    const std::vector<float>& embedding = embeddings[j];
    const std::uint8_t key = truth.label(j * stride).bits();
    auto [it, inserted] = sums.try_emplace(key, embedding.size(), 0.0f);
    for (std::size_t d = 0; d < embedding.size(); ++d) {
      it->second[d] += embedding[d];
    }
    ++counts[key];
  }
  centroids_.clear();
  for (auto& [key, sum] : sums) {
    const auto n = float(counts[key]);
    for (auto& v : sum) v /= n;
    centroids_.emplace(key, std::move(sum));
  }
  return Status::Ok();
}

Expected<synth::LabelSet> FrameClassifier::PredictFromEmbedding(
    const std::vector<float>& embedding) const {
  if (centroids_.empty()) {
    return Status::Precondition("Predict: classifier not fitted");
  }
  double best = std::numeric_limits<double>::max();
  std::uint8_t best_key = 0;
  for (const auto& [key, centroid] : centroids_) {
    const double d = SquaredDistance(embedding, centroid);
    if (d < best) {
      best = d;
      best_key = key;
    }
  }
  return synth::LabelSet(best_key);
}

double FrameClassifier::PredictionMargin(
    const std::vector<float>& embedding) const {
  if (centroids_.empty()) return 0.0;
  double best = std::numeric_limits<double>::max();
  double second = std::numeric_limits<double>::max();
  for (const auto& [key, centroid] : centroids_) {
    const double d = SquaredDistance(embedding, centroid);
    if (d < best) {
      second = best;
      best = d;
    } else if (d < second) {
      second = d;
    }
  }
  if (second == std::numeric_limits<double>::max()) return 1.0;
  double norm_sq = 0.0;
  for (float v : embedding) norm_sq += double(v) * double(v);
  const double norm = std::sqrt(norm_sq);
  if (norm <= 0.0) return 0.0;
  return (std::sqrt(second) - std::sqrt(best)) / (2.0 * norm);
}

std::vector<Expected<synth::LabelSet>> FrameClassifier::PredictBatch(
    std::vector<Tensor> activations, std::size_t split,
    Precision precision) const {
  std::vector<Expected<synth::LabelSet>> out;
  out.reserve(activations.size());
  if (activations.empty()) return out;
  std::vector<Tensor> embeddings =
      network_.ForwardSuffixBatch(std::move(activations), split, precision);
  for (const Tensor& e : embeddings) {
    out.push_back(PredictFromEmbedding(e.values()));
  }
  return out;
}

Expected<synth::LabelSet> FrameClassifier::Predict(const media::Frame& frame,
                                                   Precision precision) const {
  if (centroids_.empty()) {
    return Status::Precondition("Predict: classifier not fitted");
  }
  return PredictFromEmbedding(Embed(frame, precision));
}

double FrameClassifier::Evaluate(const std::vector<media::Frame>& frames,
                                 const synth::GroundTruth& truth,
                                 std::size_t stride,
                                 Precision precision) const {
  stride = std::max<std::size_t>(1, stride);
  const std::vector<std::vector<float>> embeddings = EmbedEvery(
      frames, std::min(frames.size(), truth.frame_count()), stride, precision);
  std::size_t correct = 0;
  for (std::size_t j = 0; j < embeddings.size(); ++j) {
    auto predicted = PredictFromEmbedding(embeddings[j]);
    if (predicted.ok() && *predicted == truth.label(j * stride)) ++correct;
  }
  return embeddings.empty()
             ? 0.0
             : double(correct) / double(embeddings.size());
}

}  // namespace sieve::nn
