// Cross-version golden digests for the NN path: FNV-1a hashes of backbone
// outputs on fixed inputs, pinned to the values the portable blocked GEMM
// produced before the fp32 GEMM moved into the SIMD kernel table.
//
// The equivalence tests compare two paths of one build (batched against
// per-frame, split against fused, SIMD table against scalar table), so a
// change that moves every path the same way would still pass there. These
// digests compare the build against recorded history: one flipped float
// bit in an embedding, a cut-point activation, a batched suffix or a
// fitted centroid fails here. Every kernel dispatch
// (SIEVE_KERNEL_ARCH=scalar|avx2) and every -march must reproduce them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "nn/classifier.h"
#include "nn/network.h"
#include "nn/precision.h"
#include "nn/tensor.h"
#include "synth/scene.h"

namespace sieve::nn {
namespace {

class Fnv1a {
 public:
  void Bytes(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, 8);
    Bytes(b);
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Activation(const Tensor& t) {
    U64(std::uint64_t(t.shape().c));
    U64(std::uint64_t(t.shape().h));
    U64(std::uint64_t(t.shape().w));
    Bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(t.data()), t.shape().bytes()));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The production backbone shape (ClassifierParams defaults: 96x96 input,
/// 64-d embedding), so every conv runs at the shapes the runtime serves.
const Network& Backbone() {
  static const Network net = MakeBackbone(96, 64, ClassifierParams{}.seed);
  return net;
}

/// Integer-LCG inputs in [-0.5, 0.5): no libm, identical on every host.
Tensor FixedInput(const Shape& shape, std::uint64_t salt) {
  Tensor t(shape);
  std::uint64_t state = 0x9e3779b97f4a7c15ull + salt;
  for (float& v : t.values()) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = float(double(state >> 40) / double(1u << 24)) - 0.5f;
  }
  return t;
}

constexpr std::size_t kSplit = 6;

TEST(NnGoldenDigest, BackboneEmbeddings) {
  const Network& net = Backbone();
  Fnv1a fp32, int8;
  for (std::uint64_t salt = 0; salt < 4; ++salt) {
    const Tensor input = FixedInput(net.input_shape(), salt);
    fp32.Activation(net.Forward(input, Precision::kFp32));
    int8.Activation(net.Forward(input, Precision::kInt8));
  }
  EXPECT_EQ(fp32.value(), 0xf710c8e89382c267ull)
      << std::hex << "0x" << fp32.value();
  EXPECT_EQ(int8.value(), 0x6c5d2f544e13f363ull)
      << std::hex << "0x" << int8.value();
}

TEST(NnGoldenDigest, SplitPrefixAndSuffix) {
  const Network& net = Backbone();
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    Fnv1a h;
    for (std::uint64_t salt = 10; salt < 13; ++salt) {
      const Tensor act =
          net.ForwardPrefix(FixedInput(net.input_shape(), salt), kSplit,
                            precision);
      h.Activation(act);
      h.Activation(net.ForwardSuffix(act, kSplit, precision));
    }
    const std::uint64_t want =
        precision == Precision::kFp32 ? 0xe60e753d924a85d7ull
                                       : 0x1c92d65b9ebbee02ull;
    EXPECT_EQ(h.value(), want)
        << PrecisionName(precision) << std::hex << " 0x" << h.value();
  }
}

synth::SyntheticVideo FitScene() {
  synth::SceneConfig c;
  c.width = 128;
  c.height = 96;
  c.num_frames = 96;
  c.seed = 1601;
  c.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kPerson};
  c.mean_gap_seconds = 0.6;
  c.min_gap_seconds = 0.3;
  c.mean_dwell_seconds = 0.8;
  c.min_dwell_seconds = 0.4;
  c.noise_sigma = 1.0;
  return synth::GenerateScene(c);
}

/// A classifier fitted on FitScene; its centroids enter every digest below
/// through the label bits and the double-precision margins.
const FrameClassifier& Fitted() {
  static const FrameClassifier classifier = [] {
    const synth::SyntheticVideo scene = FitScene();
    FrameClassifier c;
    EXPECT_TRUE(c.Fit(scene.video.frames, scene.truth, 2).ok());
    return c;
  }();
  return classifier;
}

TEST(NnGoldenDigest, PredictBatchAtBatchSizes) {
  const FrameClassifier& classifier = Fitted();
  const Network& net = classifier.network();
  Fnv1a h;
  for (const std::size_t batch : {std::size_t(1), std::size_t(3),
                                   std::size_t(16)}) {
    std::vector<Tensor> acts;
    for (std::size_t i = 0; i < batch; ++i) {
      acts.push_back(net.ForwardPrefix(
          FixedInput(net.input_shape(), 100 + batch * 31 + i), kSplit));
    }
    for (const Tensor& e : net.ForwardSuffixBatch(acts, kSplit)) {
      h.Activation(e);
    }
    for (const auto& label : classifier.PredictBatch(acts, kSplit)) {
      ASSERT_TRUE(label.ok());
      h.U64(label->bits());
    }
  }
  EXPECT_EQ(h.value(), 0x7bd63154aa96174dull) << std::hex << "0x" << h.value();
}

TEST(NnGoldenDigest, FittedClassifierPredictions) {
  const FrameClassifier& classifier = Fitted();
  ASSERT_TRUE(classifier.fitted());
  const synth::SyntheticVideo scene = FitScene();
  Fnv1a h;
  h.U64(classifier.centroid_count());
  for (std::size_t i = 1; i < scene.video.frames.size(); i += 3) {
    const std::vector<float> embedding =
        classifier.Embed(scene.video.frames[i]);
    auto label = classifier.PredictFromEmbedding(embedding);
    ASSERT_TRUE(label.ok());
    h.U64(label->bits());
    h.F64(classifier.PredictionMargin(embedding));
  }
  EXPECT_EQ(h.value(), 0x539c9843a19ede24ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace sieve::nn
