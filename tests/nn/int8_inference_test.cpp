// Int8 quantized inference: the contract the runtime's per-session
// precision knob rides on (docs/perf.md "int8 quantization contract").
//
//   * determinism: int8 forward is bit-stable run to run;
//   * split/batch invariance: ForwardPrefix+ForwardSuffix and
//     ForwardSuffixBatch at int8 are bit-identical to the fused int8
//     forward — the properties the split-execution and fleet tiers rely on
//     hold at every precision, not just fp32;
//   * accuracy: int8 embeddings stay close to fp32 and the end-to-end
//     top-1 prediction agreement is >= 99% on a synthetic scene (the
//     perf_hotpaths int8_inference scenario gates the same bound on its
//     timing runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/classifier.h"
#include "nn/network.h"
#include "nn/precision.h"
#include "synth/scene.h"

namespace sieve::nn {
namespace {

synth::SyntheticVideo TestScene(std::uint64_t seed) {
  synth::SceneConfig c;
  c.width = 160;
  c.height = 120;
  c.num_frames = 300;
  c.seed = seed;
  c.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kPerson};
  c.mean_gap_seconds = 1.2;
  c.min_gap_seconds = 0.5;
  c.mean_dwell_seconds = 2.0;
  c.min_dwell_seconds = 1.0;
  c.noise_sigma = 1.0;
  return synth::GenerateScene(c);
}

ClassifierParams FastParams() {
  ClassifierParams p;
  p.input_size = 48;
  p.embedding_dim = 32;
  return p;
}

Tensor DeterministicInput(const Shape& shape, std::uint64_t salt) {
  Tensor t(shape);
  std::uint64_t state = 0x9e3779b97f4a7c15ull + salt;
  for (float& v : t.values()) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = float(double(state >> 40) / double(1u << 24)) - 0.5f;
  }
  return t;
}

TEST(Int8Inference, ForwardIsDeterministic) {
  const Network net = MakeBackbone(48, 32, /*seed=*/11);
  const Tensor input = DeterministicInput(net.input_shape(), 1);
  const Tensor a = net.Forward(input, Precision::kInt8);
  const Tensor b = net.Forward(input, Precision::kInt8);
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(a.values(), b.values()) << "int8 forward must be bit-stable";
}

TEST(Int8Inference, SplitForwardBitIdenticalToFused) {
  const Network net = MakeBackbone(48, 32, /*seed=*/12);
  const Tensor input = DeterministicInput(net.input_shape(), 2);
  const Tensor fused = net.Forward(input, Precision::kInt8);
  for (std::size_t split = 0; split <= net.LayerCount(); ++split) {
    const Tensor cut = net.ForwardPrefix(input, split, Precision::kInt8);
    const Tensor stitched = net.ForwardSuffix(cut, split, Precision::kInt8);
    EXPECT_EQ(fused.values(), stitched.values())
        << "prefix+suffix at int8 diverged from fused forward at split "
        << split;
  }
}

TEST(Int8Inference, BatchedSuffixBitIdenticalPerSample) {
  const Network net = MakeBackbone(48, 32, /*seed=*/13);
  const std::size_t split = net.LayerCount() / 2;
  std::vector<Tensor> activations;
  std::vector<Tensor> singles;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Tensor input = DeterministicInput(net.input_shape(), 100 + i);
    Tensor cut = net.ForwardPrefix(input, split, Precision::kInt8);
    singles.push_back(net.ForwardSuffix(cut, split, Precision::kInt8));
    activations.push_back(std::move(cut));
  }
  const std::vector<Tensor> batched =
      net.ForwardSuffixBatch(std::move(activations), split, Precision::kInt8);
  ASSERT_EQ(batched.size(), singles.size());
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(batched[i].values(), singles[i].values())
        << "batched int8 suffix diverged from per-sample at index " << i;
  }
}

TEST(Int8Inference, EmbeddingStaysCloseToFp32) {
  const Network net = MakeBackbone(48, 32, /*seed=*/14);
  const Tensor input = DeterministicInput(net.input_shape(), 3);
  const Tensor fp32 = net.Forward(input, Precision::kFp32);
  const Tensor int8 = net.Forward(input, Precision::kInt8);
  ASSERT_EQ(fp32.values().size(), int8.values().size());
  float scale = 0.0f;
  for (float v : fp32.values()) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0f);
  float worst = 0.0f;
  for (std::size_t i = 0; i < fp32.values().size(); ++i) {
    worst = std::max(worst, std::abs(fp32.values()[i] - int8.values()[i]));
  }
  // Dynamic per-tensor activation quantization accumulates a few steps of
  // rounding across layers; a 15% envelope of the embedding's dynamic range
  // is far above observed error but still tight enough to catch a broken
  // scale or zero-point.
  EXPECT_LT(worst / scale, 0.15f);
}

TEST(Int8Inference, TopOneAgreementAtLeast99PercentOnDecidableFrames) {
  // The agreement contract (mirrored by the bench gate): frames whose fp32
  // prediction margin clears the int8 noise floor must agree >= 99%, and
  // any frame that flips must sit below that floor — quantization may only
  // move genuinely borderline frames (an object half-through the door),
  // never decided ones. kNoiseFloor is ~2x the measured worst-case int8
  // relative embedding error (~1.1%) and ~10x the worst flip margin ever
  // observed, so this holds with a wide safety factor across seeds.
  constexpr double kNoiseFloor = 0.02;
  const auto scene = TestScene(21);
  // Full-size backbone: the agreement gate is a property of the deployed
  // model, matching the bench's configuration.
  FrameClassifier classifier;
  ASSERT_TRUE(classifier.Fit(scene.video.frames, scene.truth, 4).ok());

  std::size_t total = 0;
  std::size_t agree = 0;
  std::size_t decidable = 0;
  std::size_t decidable_agree = 0;
  for (const auto& frame : scene.video.frames) {
    const std::vector<float> embedding =
        classifier.Embed(frame, Precision::kFp32);
    const auto fp32 = classifier.PredictFromEmbedding(embedding);
    const auto int8 = classifier.Predict(frame, Precision::kInt8);
    ASSERT_TRUE(fp32.ok());
    ASSERT_TRUE(int8.ok());
    const double margin = classifier.PredictionMargin(embedding);
    const bool same = fp32->bits() == int8->bits();
    ++total;
    if (same) ++agree;
    if (margin > kNoiseFloor) {
      ++decidable;
      if (same) ++decidable_agree;
    }
    EXPECT_TRUE(same || margin <= kNoiseFloor)
        << "a frame with fp32 margin " << margin
        << " (above the noise floor) flipped under int8";
  }
  ASSERT_GT(decidable, 0u);
  const double agreement = double(decidable_agree) / double(decidable);
  EXPECT_GE(agreement, 0.99)
      << "int8 disagreed with fp32 on " << (decidable - decidable_agree)
      << "/" << decidable << " decidable frames";
  // The raw number (all frames, borderline included) stays high too.
  EXPECT_GE(double(agree) / double(total), 0.9);
}

TEST(Int8Inference, ProfileLayersTimesEveryLayerAtInt8) {
  const Network net = MakeBackbone(48, 32, /*seed=*/15);
  const auto profile = net.ProfileLayers(/*iterations=*/1, Precision::kInt8);
  ASSERT_EQ(profile.size(), net.LayerCount());
  for (const auto& layer : profile) {
    EXPECT_GE(layer.measured_ms, 0.0);
  }
}

}  // namespace
}  // namespace sieve::nn
