// Optimization-equivalence tests for the NN hot path: the dispatched GEMM
// vs the naive reference on randomized shapes (bit for bit, under whichever
// kernel table is active), the Conv2D transposed-weight cache
// (including invalidation on mutation), and in-place element-wise layers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "nn/tensor.h"

namespace sieve::nn {
namespace {

TEST(GemmBlocked, MatchesNaiveOnRandomizedShapes) {
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const int m = rng.UniformInt(1, 70);
    const int k = rng.UniformInt(1, 300);
    const int n = rng.UniformInt(1, 70);
    std::vector<float> a(std::size_t(m) * k), b(std::size_t(k) * n);
    for (auto& v : a) v = float(rng.Uniform(-2.0, 2.0));
    for (auto& v : b) v = float(rng.Uniform(-2.0, 2.0));
    std::vector<float> c_blocked(std::size_t(m) * n, -1.0f);
    std::vector<float> c_naive(std::size_t(m) * n, 1.0f);
    Gemm(a.data(), b.data(), c_blocked.data(), m, k, n);
    GemmNaive(a.data(), b.data(), c_naive.data(), m, k, n);
    for (std::size_t i = 0; i < c_naive.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(c_blocked[i]),
                std::bit_cast<std::uint32_t>(c_naive[i]))
          << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
    }
  }
}

TEST(GemmBlocked, MicrokernelBoundaryShapes) {
  // Exercise exact multiples and off-by-one around the 6x16 (AVX2) and
  // 4x16 (blocked) tiles and the blocked loop's K panel size.
  const int shapes[][3] = {{4, 16, 16},  {5, 17, 17},  {3, 15, 15},
                           {8, 256, 32}, {9, 257, 33}, {1, 1, 1},
                           {4, 512, 16}, {64, 300, 48}, {6, 16, 16},
                           {7, 16, 17},  {12, 8, 24}};
  Rng rng(78);
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a(std::size_t(m) * k), b(std::size_t(k) * n);
    for (auto& v : a) v = float(rng.Uniform(-1.0, 1.0));
    for (auto& v : b) v = float(rng.Uniform(-1.0, 1.0));
    std::vector<float> c_blocked(std::size_t(m) * n), c_naive(std::size_t(m) * n);
    Gemm(a.data(), b.data(), c_blocked.data(), m, k, n);
    GemmNaive(a.data(), b.data(), c_naive.data(), m, k, n);
    for (std::size_t i = 0; i < c_naive.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(c_blocked[i]),
                std::bit_cast<std::uint32_t>(c_naive[i]))
          << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
    }
  }
}

TEST(Conv2DCache, RepeatedForwardIsStable) {
  Rng rng(80);
  Conv2D conv(3, 8, 3, 1, 1, rng);
  Tensor input(Shape{3, 12, 12});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float(std::sin(double(i) * 0.37));
  }
  const Tensor first = conv.Forward(input);
  const Tensor second = conv.Forward(input);  // reuses cached wt_ + scratch
  ASSERT_EQ(first.values().size(), second.values().size());
  for (std::size_t i = 0; i < first.values().size(); ++i) {
    EXPECT_EQ(first.values()[i], second.values()[i]);
  }
}

TEST(Conv2DCache, WeightMutationInvalidatesCache) {
  Rng rng(81);
  Conv2D conv(1, 1, 3, 1, 1, rng);
  Tensor input(Shape{1, 6, 6});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float(i + 1);
  }
  (void)conv.Forward(input);  // populate cache with the random init

  // Mutate to a pure center-tap kernel through the public accessor; the
  // cached transpose must be rebuilt, making the conv an identity.
  std::fill(conv.weights().begin(), conv.weights().end(), 0.0f);
  conv.weights()[4] = 1.0f;
  std::fill(conv.bias().begin(), conv.bias().end(), 0.0f);
  const Tensor out = conv.Forward(input);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      EXPECT_FLOAT_EQ(out.at(0, y, x), input.at(0, y, x));
    }
  }
}

TEST(InPlaceLayers, MatchCopyingForward) {
  Rng rng(82);
  const BatchNorm bn(4, rng);
  const LeakyRelu relu(0.1f);
  const Softmax softmax;
  Tensor input(Shape{4, 5, 5});
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float(rng.Gaussian(0.0, 1.5));
  }
  for (const Layer* layer :
       {static_cast<const Layer*>(&bn), static_cast<const Layer*>(&relu),
        static_cast<const Layer*>(&softmax)}) {
    const Tensor by_copy = layer->Forward(input);
    Tensor in_place = input;
    layer->ForwardInPlace(in_place);
    ASSERT_EQ(by_copy.values().size(), in_place.values().size());
    for (std::size_t i = 0; i < by_copy.values().size(); ++i) {
      EXPECT_EQ(by_copy.values()[i], in_place.values()[i]) << layer->name();
    }
  }
}

TEST(InPlaceLayers, NetworkForwardUnchangedByInPlacePath) {
  // The backbone mixes conv (copying) and element-wise (in-place) layers;
  // ForwardRange must equal chaining Forward layer by layer.
  const Network net = MakeBackbone(32, 16, 99);
  Tensor input(net.input_shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float((i % 251) / 251.0);
  }
  const Tensor via_network = net.Forward(input);
  Tensor manual = input;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    manual = net.layer(i).Forward(manual);
  }
  ASSERT_EQ(via_network.values().size(), manual.values().size());
  for (std::size_t i = 0; i < via_network.values().size(); ++i) {
    EXPECT_EQ(via_network.values()[i], manual.values()[i]);
  }
}

}  // namespace
}  // namespace sieve::nn
