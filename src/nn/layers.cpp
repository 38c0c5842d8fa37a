#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/simd/kernels.h"

namespace sieve::nn {

namespace {

/// He-normal initializer for convolution / linear weights.
void HeInit(std::vector<float>& w, std::size_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / double(std::max<std::size_t>(1, fan_in)));
  for (auto& v : w) v = float(rng.Gaussian(0.0, stddev));
}

/// The fp32 conv scratch: im2col rows and the GEMM output. Thread-local, so
/// it persists across calls (steady-state inference never allocates) yet
/// keeps concurrent calls on one shared instance race-free, which is what
/// lets every runtime session share a classifier. Forward and ForwardBatch
/// share it, so a thread holds one copy sized by the largest layer it ran,
/// whatever mix of batch sizes reached it.
struct ConvScratch {
  std::vector<float> cols;
  std::vector<float> gemm_out;
};

ConvScratch& ThreadConvScratch() {
  static thread_local ConvScratch scratch;
  return scratch;
}

}  // namespace

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weights_(std::size_t(out_channels) * std::size_t(in_channels) *
               std::size_t(kernel) * std::size_t(kernel)),
      bias_(std::size_t(out_channels), 0.0f) {
  HeInit(weights_, std::size_t(in_channels) * std::size_t(kernel) * std::size_t(kernel),
         rng);
  RebuildTransposedWeights();
}

void Conv2D::RebuildTransposedWeights() const {
  const std::size_t patch =
      std::size_t(in_c_) * std::size_t(kernel_) * std::size_t(kernel_);
  wt_.resize(patch * std::size_t(out_c_));
  for (int o = 0; o < out_c_; ++o) {
    for (std::size_t p = 0; p < patch; ++p) {
      wt_[p * std::size_t(out_c_) + std::size_t(o)] =
          weights_[std::size_t(o) * patch + p];
    }
  }
  wt_dirty_.store(false, std::memory_order_release);
}

void Conv2D::RebuildQuantizedWeights() const {
  const int patch = in_c_ * kernel_ * kernel_;
  qw_ = QuantizeWeightsPerChannel(weights_.data(), out_c_, patch);
  qw_dirty_.store(false, std::memory_order_release);
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << "conv" << kernel_ << "x" << kernel_ << "_" << in_c_ << "->" << out_c_
     << "_s" << stride_;
  return os.str();
}

Shape Conv2D::OutputShape(const Shape& input) const {
  assert(input.c == in_c_);
  const int oh = (input.h + 2 * pad_ - kernel_) / stride_ + 1;
  const int ow = (input.w + 2 * pad_ - kernel_) / stride_ + 1;
  return Shape{out_c_, oh, ow};
}

void Conv2D::Im2Col(const Tensor& input, const Shape& out_shape,
                    float* cols) const {
  const int oh = out_shape.h, ow = out_shape.w;
  const int ih = input.shape().h, iw = input.shape().w;
  const int k = kernel_;
  const std::size_t patch = std::size_t(in_c_) * std::size_t(k) * std::size_t(k);
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      float* row =
          cols + (std::size_t(oy) * std::size_t(ow) + std::size_t(ox)) * patch;
      std::size_t idx = 0;
      const int ix0 = ox * stride_ - pad_;
      for (int c = 0; c < in_c_; ++c) {
        const float* chan = input.data() + std::size_t(c) * std::size_t(ih) *
                                               std::size_t(iw);
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= ih) {
            for (int kx = 0; kx < k; ++kx) row[idx++] = 0.0f;
            continue;
          }
          const float* src = chan + std::size_t(iy) * std::size_t(iw);
          if (ix0 >= 0 && ix0 + k <= iw) {
            for (int kx = 0; kx < k; ++kx) row[idx++] = src[ix0 + kx];
          } else {
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ix0 + kx;
              row[idx++] = (ix >= 0 && ix < iw) ? src[ix] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void Conv2D::ScatterOutput(const float* gemm_rows, Tensor& out) const {
  float* dst = out.data();
  const std::size_t hw = std::size_t(out.shape().h) * std::size_t(out.shape().w);
  for (std::size_t px = 0; px < hw; ++px) {
    const float* row = gemm_rows + px * std::size_t(out_c_);
    for (int o = 0; o < out_c_; ++o) {
      dst[std::size_t(o) * hw + px] = row[o] + bias_[std::size_t(o)];
    }
  }
}

Tensor Conv2D::Forward(const Tensor& input) const {
  const Shape out_shape = OutputShape(input.shape());
  const int oh = out_shape.h, ow = out_shape.w;
  const std::size_t patch =
      std::size_t(in_c_) * std::size_t(kernel_) * std::size_t(kernel_);

  if (wt_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(wt_mutex_);
    if (wt_dirty_.load(std::memory_order_relaxed)) RebuildTransposedWeights();
  }

  // im2col: rows = output pixels, cols = receptive-field patch.
  auto& [cols, gemm_out] = ThreadConvScratch();
  cols.resize(std::size_t(oh) * std::size_t(ow) * patch);
  Im2Col(input, out_shape, cols.data());

  // GEMM: [oh*ow x patch] * [patch x out_c] against the cached transposed
  // weights.
  gemm_out.resize(std::size_t(oh) * std::size_t(ow) * std::size_t(out_c_));
  Gemm(cols.data(), wt_.data(), gemm_out.data(), oh * ow, int(patch), out_c_);

  Tensor out(out_shape);
  ScatterOutput(gemm_out.data(), out);
  return out;
}

void Conv2D::ForwardBatch(std::vector<Tensor>& batch) const {
  if (batch.empty()) return;
  if (batch.size() == 1) {
    ForwardInPlace(batch.front());
    return;
  }
  const Shape in_shape = batch.front().shape();
  for (const Tensor& t : batch) assert(t.shape() == in_shape);
  const Shape out_shape = OutputShape(in_shape);
  const std::size_t hw = std::size_t(out_shape.h) * std::size_t(out_shape.w);
  const std::size_t patch =
      std::size_t(in_c_) * std::size_t(kernel_) * std::size_t(kernel_);
  const std::size_t b = batch.size();

  if (wt_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(wt_mutex_);
    if (wt_dirty_.load(std::memory_order_relaxed)) RebuildTransposedWeights();
  }

  // Stack samples' im2col rows into one [chunk*oh*ow x patch] matrix per
  // cache-sized chunk and GEMM each chunk: within a chunk the
  // transposed-weight panel streams through cache once instead of once per
  // frame, while the chunk bound keeps the stacked cols matrix from blowing
  // the last-level cache (stacking a 32-sample batch wholesale is *slower*
  // than per-frame — the giant cols buffer turns the GEMM memory-bound).
  // Bit-exactness holds at any chunking because each output element is an
  // independent k-ascending dot product whose accumulation order does not
  // depend on M (see Gemm in nn/tensor.h), and Im2Col/ScatterOutput are the
  // very same code the per-frame path runs.
  constexpr std::size_t kColsBudgetBytes = 256 * 1024;
  const std::size_t sample_cols_bytes = hw * patch * sizeof(float);
  const std::size_t chunk_samples = std::min(
      b, std::max<std::size_t>(1, kColsBudgetBytes / std::max<std::size_t>(
                                      1, sample_cols_bytes)));
  auto& [cols, gemm_out] = ThreadConvScratch();
  cols.resize(chunk_samples * hw * patch);
  gemm_out.resize(chunk_samples * hw * std::size_t(out_c_));
  for (std::size_t base = 0; base < b; base += chunk_samples) {
    const std::size_t n = std::min(chunk_samples, b - base);
    for (std::size_t i = 0; i < n; ++i) {
      Im2Col(batch[base + i], out_shape, cols.data() + i * hw * patch);
    }
    Gemm(cols.data(), wt_.data(), gemm_out.data(), int(n * hw), int(patch),
         out_c_);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor out(out_shape);
      ScatterOutput(gemm_out.data() + i * hw * std::size_t(out_c_), out);
      batch[base + i] = std::move(out);
    }
  }
}

void Conv2D::Im2ColU8(const std::uint8_t* qinput, const Shape& in_shape,
                      const Shape& out_shape, std::uint8_t pad_code,
                      std::uint8_t* cols) const {
  const int oh = out_shape.h, ow = out_shape.w;
  const int ih = in_shape.h, iw = in_shape.w;
  const int k = kernel_;
  const std::size_t patch = std::size_t(in_c_) * std::size_t(k) * std::size_t(k);
  for (int oy = 0; oy < oh; ++oy) {
    const int iy0 = oy * stride_ - pad_;
    const bool y_interior = iy0 >= 0 && iy0 + k <= ih;
    for (int ox = 0; ox < ow; ++ox) {
      std::uint8_t* row =
          cols + (std::size_t(oy) * std::size_t(ow) + std::size_t(ox)) * patch;
      std::size_t idx = 0;
      const int ix0 = ox * stride_ - pad_;
      // Fast path for the dominant case (3x3 kernel, no padding touched):
      // each 3-byte patch row is moved as one overlapped 4-byte copy. The
      // spilled 4th byte is overwritten by the next patch write — the very
      // last one lands in the one byte of slack the caller reserves past
      // the cols buffer (pixels are filled in ascending order, so a spill
      // into the next pixel's row is always rewritten before use). The
      // strict ix0 + k < iw bound keeps the 4-byte *read* inside the input
      // row.
      if (k == 3 && y_interior && ix0 >= 0 && ix0 + k < iw) {
        const std::uint8_t* src =
            qinput + std::size_t(iy0) * std::size_t(iw) + std::size_t(ix0);
        const std::size_t chan_stride = std::size_t(ih) * std::size_t(iw);
        for (int c = 0; c < in_c_; ++c) {
          const std::uint8_t* s = src + std::size_t(c) * chan_stride;
          for (int ky = 0; ky < 3; ++ky) {
            std::uint32_t v;
            std::memcpy(&v, s, sizeof(v));
            std::memcpy(row + idx, &v, sizeof(v));
            idx += 3;
            s += iw;
          }
        }
        continue;
      }
      for (int c = 0; c < in_c_; ++c) {
        const std::uint8_t* chan =
            qinput + std::size_t(c) * std::size_t(ih) * std::size_t(iw);
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy * stride_ + ky - pad_;
          if (iy < 0 || iy >= ih) {
            for (int kx = 0; kx < k; ++kx) row[idx++] = pad_code;
            continue;
          }
          const std::uint8_t* src = chan + std::size_t(iy) * std::size_t(iw);
          if (ix0 >= 0 && ix0 + k <= iw) {
            for (int kx = 0; kx < k; ++kx) row[idx++] = src[ix0 + kx];
          } else {
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ix0 + kx;
              row[idx++] = (ix >= 0 && ix < iw) ? src[ix] : pad_code;
            }
          }
        }
      }
    }
  }
}

Tensor Conv2D::ForwardInt8(const Tensor& input) const {
  const Shape out_shape = OutputShape(input.shape());
  const std::size_t hw =
      std::size_t(out_shape.h) * std::size_t(out_shape.w);
  const std::size_t patch =
      std::size_t(in_c_) * std::size_t(kernel_) * std::size_t(kernel_);

  if (qw_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(wt_mutex_);
    if (qw_dirty_.load(std::memory_order_relaxed)) RebuildQuantizedWeights();
  }

  // Quantize the whole input once (dynamic per-tensor scale), then gather
  // uint8 codes — padding is the zero point, which dequantizes to exactly 0.
  const ActivationQuant aq =
      ChooseActivationQuant(input.data(), input.size());
  static thread_local std::vector<std::uint8_t> qinput;
  static thread_local std::vector<std::uint8_t> qcols;
  static thread_local std::vector<std::int32_t> acc;
  static thread_local std::vector<float> dequant_scale;
  static thread_local std::vector<std::int32_t> correction;
  qinput.resize(input.size());
  QuantizeActivations(input.data(), input.size(), aq, qinput.data());
  // +1: Im2ColU8's overlapped 4-byte copies may spill one byte past the
  // final patch row.
  qcols.resize(hw * patch + 1);
  Im2ColU8(qinput.data(), input.shape(), out_shape,
           std::uint8_t(aq.zero_point), qcols.data());

  // Hoist the per-channel dequantization constants out of the pixel loop.
  acc.resize(hw * std::size_t(out_c_));
  dequant_scale.resize(std::size_t(out_c_));
  correction.resize(std::size_t(out_c_));
  for (int o = 0; o < out_c_; ++o) {
    dequant_scale[std::size_t(o)] = aq.scale * qw_.scales[std::size_t(o)];
    correction[std::size_t(o)] = aq.zero_point * qw_.row_sums[std::size_t(o)];
  }

  // One GEMM over all pixels: the kernel's M tiling keeps the packed weight
  // panel hot across rows instead of streaming it once per pixel.
  simd::ActiveKernels().gemm_u8s8(qcols.data(), int(patch), int(hw),
                                  qw_.packed.data(), int(patch), out_c_,
                                  acc.data(), out_c_);

  // Dequantize channel-major so the output writes are contiguous.
  Tensor out(out_shape);
  float* dst = out.data();
  for (int o = 0; o < out_c_; ++o) {
    const float ds = dequant_scale[std::size_t(o)];
    const std::int32_t corr = correction[std::size_t(o)];
    const float b = bias_[std::size_t(o)];
    const std::int32_t* arow = acc.data() + o;
    float* drow = dst + std::size_t(o) * hw;
    for (std::size_t px = 0; px < hw; ++px) {
      drow[px] = ds * float(arow[px * std::size_t(out_c_)] - corr) + b;
    }
  }
  return out;
}

void Conv2D::ForwardInPlace(Tensor& t, Precision precision) const {
  if (precision == Precision::kInt8) {
    t = ForwardInt8(t);
    return;
  }
  t = Forward(t);
}

std::uint64_t Conv2D::Macs(const Shape& input) const {
  const Shape out = OutputShape(input);
  return std::uint64_t(out.elements()) * std::uint64_t(in_c_) *
         std::uint64_t(kernel_) * std::uint64_t(kernel_);
}

BatchNorm::BatchNorm(int channels, Rng& rng)
    : scale_(std::size_t(channels)), shift_(std::size_t(channels)) {
  // Seeded "trained" statistics: scales around 1, shifts around 0.
  for (auto& s : scale_) s = float(rng.Uniform(0.8, 1.2));
  for (auto& s : shift_) s = float(rng.Gaussian(0.0, 0.05));
}

Tensor BatchNorm::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void BatchNorm::ForwardInPlace(Tensor& t) const {
  const Shape& s = t.shape();
  const std::size_t hw = std::size_t(s.h) * std::size_t(s.w);
  float* p = t.data();
  for (int c = 0; c < s.c; ++c) {
    const float scale = scale_[std::size_t(c)];
    const float shift = shift_[std::size_t(c)];
    float* chan = p + std::size_t(c) * hw;
    for (std::size_t i = 0; i < hw; ++i) chan[i] = chan[i] * scale + shift;
  }
}

Tensor LeakyRelu::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void LeakyRelu::ForwardInPlace(Tensor& t) const {
  for (auto& v : t.values()) {
    if (v < 0) v *= slope_;
  }
}

Shape MaxPool::OutputShape(const Shape& input) const {
  return Shape{input.c, std::max(1, input.h / size_), std::max(1, input.w / size_)};
}

Tensor MaxPool::Forward(const Tensor& input) const {
  const Shape out_shape = OutputShape(input.shape());
  Tensor out(out_shape);
  for (int c = 0; c < out_shape.c; ++c) {
    for (int oy = 0; oy < out_shape.h; ++oy) {
      for (int ox = 0; ox < out_shape.w; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ky = 0; ky < size_; ++ky) {
          for (int kx = 0; kx < size_; ++kx) {
            const int iy = oy * size_ + ky, ix = ox * size_ + kx;
            if (iy < input.shape().h && ix < input.shape().w) {
              best = std::max(best, input.at(c, iy, ix));
            }
          }
        }
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Tensor GlobalAvgPool::Forward(const Tensor& input) const {
  const Shape& s = input.shape();
  Tensor out(Shape{s.c, 1, 1});
  const double n = double(s.h) * double(s.w);
  for (int c = 0; c < s.c; ++c) {
    double acc = 0;
    for (int y = 0; y < s.h; ++y) {
      for (int x = 0; x < s.w; ++x) acc += input.at(c, y, x);
    }
    out.at(c, 0, 0) = float(acc / n);
  }
  return out;
}

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weights_(std::size_t(in_features) * std::size_t(out_features)),
      bias_(std::size_t(out_features), 0.0f) {
  HeInit(weights_, std::size_t(in_features), rng);
  // Weights are immutable after the seeded init, so the int8 twin can be
  // built eagerly (it is tiny next to the float matrix).
  qw_ = QuantizeWeightsPerChannel(weights_.data(), out_f_, in_f_);
}

std::string Linear::name() const {
  std::ostringstream os;
  os << "linear_" << in_f_ << "->" << out_f_;
  return os.str();
}

Shape Linear::OutputShape(const Shape& input) const {
  assert(int(input.elements()) == in_f_);
  (void)input;
  return Shape{out_f_, 1, 1};
}

Tensor Linear::Forward(const Tensor& input) const {
  assert(int(input.size()) == in_f_);
  Tensor out(Shape{out_f_, 1, 1});
  for (int o = 0; o < out_f_; ++o) {
    double acc = bias_[std::size_t(o)];
    const float* wrow = weights_.data() + std::size_t(o) * std::size_t(in_f_);
    const float* in = input.data();
    for (int i = 0; i < in_f_; ++i) acc += double(wrow[i]) * double(in[i]);
    out.at(o, 0, 0) = float(acc);
  }
  return out;
}

void Linear::ForwardInPlace(Tensor& t, Precision precision) const {
  if (precision != Precision::kInt8) {
    t = Forward(t);
    return;
  }
  assert(int(t.size()) == in_f_);
  const ActivationQuant aq = ChooseActivationQuant(t.data(), t.size());
  static thread_local std::vector<std::uint8_t> qin;
  static thread_local std::vector<std::int32_t> acc;
  qin.resize(t.size());
  QuantizeActivations(t.data(), t.size(), aq, qin.data());
  acc.resize(std::size_t(out_f_));
  simd::ActiveKernels().gemm_u8s8(qin.data(), in_f_, 1, qw_.packed.data(),
                                  in_f_, out_f_, acc.data(), out_f_);
  Tensor out(Shape{out_f_, 1, 1});
  for (int o = 0; o < out_f_; ++o) {
    out.at(o, 0, 0) =
        aq.scale * qw_.scales[std::size_t(o)] *
            float(acc[std::size_t(o)] -
                  aq.zero_point * qw_.row_sums[std::size_t(o)]) +
        bias_[std::size_t(o)];
  }
  t = std::move(out);
}

std::uint64_t Linear::Macs(const Shape&) const {
  return std::uint64_t(in_f_) * std::uint64_t(out_f_);
}

Tensor Softmax::Forward(const Tensor& input) const {
  Tensor out = input;
  ForwardInPlace(out);
  return out;
}

void Softmax::ForwardInPlace(Tensor& t) const {
  float peak = -std::numeric_limits<float>::infinity();
  for (float v : t.values()) peak = std::max(peak, v);
  double sum = 0;
  for (auto& v : t.values()) {
    v = std::exp(v - peak);
    sum += v;
  }
  if (sum > 0) {
    for (auto& v : t.values()) v = float(double(v) / sum);
  }
}

}  // namespace sieve::nn
