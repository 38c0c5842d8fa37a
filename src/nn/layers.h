// Inference layers: Conv2D (im2col + GEMM), BatchNorm, activations, pooling,
// Linear, Softmax. Inference-only: weights are set at construction (seeded
// initializers) or folded in (BatchNorm).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/precision.h"
#include "nn/quantize.h"
#include "nn/tensor.h"

namespace sieve::nn {

/// Abstract inference layer.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  /// Output shape for a given input shape (asserts on mismatch).
  virtual Shape OutputShape(const Shape& input) const = 0;
  virtual Tensor Forward(const Tensor& input) const = 0;
  /// Forward that may reuse `t`'s buffer. Element-wise layers override this
  /// to mutate in place; the default falls back to Forward. The sequential
  /// network loop uses this entry point.
  virtual void ForwardInPlace(Tensor& t) const { t = Forward(t); }
  /// Forward a batch of same-shaped samples. The contract is strict
  /// bit-exactness per sample: ForwardBatch([x0..xB]) element i must equal
  /// ForwardInPlace(xi) to the last float bit, for every batch size — the
  /// fleet tier's batched cloud inference relies on it to produce the same
  /// databases as the per-frame path. The default runs samples one by one
  /// (trivially exact); layers with a real batched fast path (Conv2D's
  /// stacked-im2col single GEMM) override it with an implementation whose
  /// per-element accumulation order is batch-size-invariant.
  virtual void ForwardBatch(std::vector<Tensor>& batch) const {
    for (Tensor& t : batch) ForwardInPlace(t);
  }
  /// Precision-aware forward. The default ignores the precision and runs the
  /// fp32 path — correct for every layer without a quantized implementation
  /// (elementwise/pooling layers run fp32 even inside an int8 pass; only the
  /// GEMM-shaped layers — Conv2D, Linear — override this with an int8 path).
  virtual void ForwardInPlace(Tensor& t, Precision precision) const {
    (void)precision;
    ForwardInPlace(t);
  }
  /// Precision-aware batched forward. fp32 routes to the (possibly
  /// batched-fast-path) fp32 overload; int8 runs samples one by one, which
  /// keeps the per-sample bit-exactness contract trivially (each sample's
  /// dynamic activation scale depends only on that sample).
  virtual void ForwardBatch(std::vector<Tensor>& batch,
                            Precision precision) const {
    if (precision == Precision::kFp32) {
      ForwardBatch(batch);
      return;
    }
    for (Tensor& t : batch) ForwardInPlace(t, precision);
  }
  /// Approximate multiply-accumulate count for one forward pass (cost model
  /// input for the partitioner and the DES calibration).
  virtual std::uint64_t Macs(const Shape& input) const = 0;
};

/// 2D convolution, square kernel, same dilation 1, zero padding `pad`.
///
/// Forward is const-thread-safe: the im2col / GEMM scratch lives in
/// thread-local buffers that Forward and ForwardBatch share (steady-state
/// inference never allocates, and any number of threads may share one
/// instance), and the lazily rebuilt
/// transposed-weight cache is guarded by an internal mutex. Weight
/// *mutation* (weights()/bias()) is not synchronized — do not mutate
/// concurrently with Forward.
class Conv2D : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  std::string name() const override;
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  /// True batched convolution: the batch's im2col rows are stacked into one
  /// [B*oh*ow x patch] matrix and multiplied by the transposed weights in a
  /// single blocked GEMM call (the microkernel takes arbitrary M), so the
  /// weight panel streams through cache once per batch instead of once per
  /// frame. Bit-exact vs the per-sample path: each output element is an
  /// independent k-ascending dot product whose accumulation order does not
  /// depend on M (see Gemm in nn/tensor.h).
  void ForwardBatch(std::vector<Tensor>& batch) const override;
  using Layer::ForwardInPlace;  // keep the 1-arg fp32 overload visible
  /// Int8 path: the input is quantized once (dynamic per-tensor scale), the
  /// im2col gather runs on uint8 codes (padding = zero_point), and each
  /// output pixel's channels come from one gemm_u8s8 microkernel call
  /// against the cached per-channel-quantized weight panel. See
  /// nn/quantize.h for the dequantization identity.
  void ForwardInPlace(Tensor& t, Precision precision) const override;
  std::uint64_t Macs(const Shape& input) const override;

  int in_channels() const noexcept { return in_c_; }
  int out_channels() const noexcept { return out_c_; }
  /// Mutable weight access invalidates the cached transposed copy AND the
  /// cached int8 weight panel; the next Forward at each precision re-derives
  /// its cache once. The invalidation happens at this call, so do not retain
  /// the reference across a Forward and mutate it afterwards — re-call
  /// weights() for every round of mutation.
  std::vector<float>& weights() noexcept {
    wt_dirty_.store(true, std::memory_order_release);
    qw_dirty_.store(true, std::memory_order_release);
    return weights_;
  }
  std::vector<float>& bias() noexcept { return bias_; }

 private:
  void RebuildTransposedWeights() const;
  void RebuildQuantizedWeights() const;
  Tensor ForwardInt8(const Tensor& input) const;
  /// Quantized im2col twin: gathers uint8 codes from the pre-quantized
  /// input plane, writing `zero_point` into padded positions. `cols` must
  /// have one byte of slack past oh*ow*patch — the interior 3x3 fast path
  /// uses overlapped 4-byte copies whose last spill byte lands there.
  void Im2ColU8(const std::uint8_t* qinput, const Shape& in_shape,
                const Shape& out_shape, std::uint8_t pad_code,
                std::uint8_t* cols) const;
  /// Fill `cols` ([oh*ow x patch], row-major) with the im2col expansion of
  /// one input. Shared by Forward and ForwardBatch so both paths lay out
  /// bit-identical GEMM operands.
  void Im2Col(const Tensor& input, const Shape& out_shape, float* cols) const;
  /// The shared epilogue: transpose one sample's [oh*ow x out_c] GEMM rows
  /// into CHW order and add the bias.
  void ScatterOutput(const float* gemm_rows, Tensor& out) const;

  int in_c_, out_c_, kernel_, stride_, pad_;
  std::vector<float> weights_;  ///< [out_c][in_c * k * k] row-major
  std::vector<float> bias_;     ///< [out_c]
  // GEMM-ready transposed weights [in_c * k * k][out_c], cached at
  // construction instead of being rebuilt every Forward. After a weights()
  // mutation the cache is rebuilt lazily, exactly once, under wt_mutex_, so
  // concurrent const Forward calls stay safe.
  mutable std::vector<float> wt_;
  mutable std::atomic<bool> wt_dirty_{false};
  mutable std::mutex wt_mutex_;
  // Int8 weight panel (packed for gemm_u8s8), built lazily on the first
  // int8 forward and after weight mutation, under the same mutex.
  mutable QuantizedWeights qw_;
  mutable std::atomic<bool> qw_dirty_{true};
};

/// Inference-time batch normalization: y = gamma * (x - mean)/sqrt(var+eps) + beta,
/// stored pre-folded as per-channel scale/shift.
class BatchNorm : public Layer {
 public:
  BatchNorm(int channels, Rng& rng);

  std::string name() const override { return "batchnorm"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  using Layer::ForwardInPlace;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float slope = 0.1f) : slope_(slope) {}
  std::string name() const override { return "leaky_relu"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  using Layer::ForwardInPlace;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  float slope_;
};

class MaxPool : public Layer {
 public:
  explicit MaxPool(int size) : size_(size) {}
  std::string name() const override { return "maxpool"; }
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }

 private:
  int size_;
};

/// Global average pooling: CxHxW -> Cx1x1 (the embedding head).
class GlobalAvgPool : public Layer {
 public:
  std::string name() const override { return "global_avg_pool"; }
  Shape OutputShape(const Shape& input) const override {
    return Shape{input.c, 1, 1};
  }
  Tensor Forward(const Tensor& input) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements();
  }
};

class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, Rng& rng);
  std::string name() const override;
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  using Layer::ForwardInPlace;  // keep the 1-arg fp32 overload visible
  /// Int8 path: one gemm_u8s8 call over the quantized input vector against
  /// the per-channel-quantized weight panel (built once at construction —
  /// Linear weights are immutable after the seeded init).
  void ForwardInPlace(Tensor& t, Precision precision) const override;
  std::uint64_t Macs(const Shape& input) const override;

 private:
  int in_f_, out_f_;
  std::vector<float> weights_;  ///< [out][in]
  std::vector<float> bias_;
  QuantizedWeights qw_;  ///< packed int8 twin of weights_
};

class Softmax : public Layer {
 public:
  std::string name() const override { return "softmax"; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  using Layer::ForwardInPlace;
  void ForwardInPlace(Tensor& t) const override;
  std::uint64_t Macs(const Shape& input) const override {
    return input.elements() * 4;
  }
};

}  // namespace sieve::nn
