// Minimal dense tensor (float32, NCHW) for the inference engine, plus the
// activation wire format used when a split forward pass ships its cut-point
// tensor from the edge to the cloud tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace sieve::nn {

/// Shape of a (batch=1) activation: channels x height x width. Linear-layer
/// activations use h == w == 1.
struct Shape {
  int c = 0, h = 0, w = 0;

  std::size_t elements() const noexcept {
    return std::size_t(c) * std::size_t(h) * std::size_t(w);
  }
  std::size_t bytes() const noexcept { return elements() * sizeof(float); }
  bool operator==(const Shape&) const noexcept = default;
  std::string ToString() const;
};

/// Dense float tensor with CHW layout.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(shape), data_(shape.elements(), 0.0f) {}

  const Shape& shape() const noexcept { return shape_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float at(int c, int y, int x) const {
    return data_[Index(c, y, x)];
  }
  float& at(int c, int y, int x) { return data_[Index(c, y, x)]; }

  const float* data() const noexcept { return data_.data(); }
  float* data() noexcept { return data_.data(); }
  const std::vector<float>& values() const noexcept { return data_; }
  std::vector<float>& values() noexcept { return data_; }

 private:
  std::size_t Index(int c, int y, int x) const noexcept {
    return (std::size_t(c) * std::size_t(shape_.h) + std::size_t(y)) *
               std::size_t(shape_.w) +
           std::size_t(x);
  }

  Shape shape_;
  std::vector<float> data_;
};

/// Serialize a tensor to the "ACT1" activation wire format: magic (4 bytes),
/// shape as three u32 (c, h, w), then the float32 payload, all little-endian.
/// The roundtrip is bit-exact — a split forward pass produces the same
/// embedding whether the activation crossed the wire or not.
std::vector<std::uint8_t> SerializeTensor(const Tensor& tensor);

/// Parse an "ACT1" activation. Rejects bad magic, truncated payloads, and
/// shape/payload size mismatches with kCorruptData.
Expected<Tensor> DeserializeTensor(std::span<const std::uint8_t> bytes);

/// C = A(MxK) * B(KxN) written into a caller-provided row-major buffer,
/// dispatched through simd::ActiveKernels().gemm_f32 (the AVX2 table runs a
/// 6x16 register-tiled microkernel). Every element is the same k-ascending
/// mul-then-add sum on every table, so the result is bit-identical to
/// GemmNaive for finite inputs, whatever the table and whatever M (which is
/// what lets batched and per-frame conv passes agree).
void Gemm(const float* a, const float* b, float* c, int m, int k, int n);

/// The straightforward ikj-order GEMM kept as the correctness reference for
/// Gemm (equivalence tests, benchmark baseline). It skips zero A entries,
/// which changes nothing for finite B.
void GemmNaive(const float* a, const float* b, float* c, int m, int k, int n);

/// Euclidean distance squared between two equal-length float vectors.
double SquaredDistance(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace sieve::nn
