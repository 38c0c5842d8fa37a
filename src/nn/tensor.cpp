#include "nn/tensor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/bytes.h"
#include "common/simd/kernels.h"

namespace sieve::nn {

std::string Shape::ToString() const {
  std::ostringstream os;
  os << c << "x" << h << "x" << w;
  return os.str();
}

namespace {
constexpr std::uint8_t kActMagic[4] = {'A', 'C', 'T', '1'};
}  // namespace

std::vector<std::uint8_t> SerializeTensor(const Tensor& tensor) {
  // Sized up front and filled with explicit little-endian stores: this runs
  // per I-frame on the edge tier of every split session, so no repeated
  // vector growth and no writer indirection per element.
  std::vector<std::uint8_t> out;
  out.reserve(sizeof(kActMagic) + 12 + tensor.shape().bytes());
  out.insert(out.end(), std::begin(kActMagic), std::end(kActMagic));
  const auto put_u32 = [&out](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      out.push_back(std::uint8_t((v >> (8 * b)) & 0xFF));
    }
  };
  put_u32(std::uint32_t(tensor.shape().c));
  put_u32(std::uint32_t(tensor.shape().h));
  put_u32(std::uint32_t(tensor.shape().w));
  if constexpr (std::endian::native == std::endian::little) {
    // The wire is little-endian float bits: on LE hosts the payload is the
    // tensor's raw memory, one bulk copy.
    const auto* raw = reinterpret_cast<const std::uint8_t*>(tensor.data());
    out.insert(out.end(), raw, raw + tensor.shape().bytes());
  } else {
    for (const float v : tensor.values()) {
      std::uint32_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      put_u32(bits);
    }
  }
  return out;
}

Expected<Tensor> DeserializeTensor(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  auto magic = reader.GetSpan(sizeof(kActMagic));
  if (!magic.ok() || !std::equal(magic->begin(), magic->end(), kActMagic)) {
    return Status::Corrupt("activation: bad magic");
  }
  auto c = reader.GetU32();
  auto h = reader.GetU32();
  auto w = reader.GetU32();
  if (!c.ok() || !h.ok() || !w.ok()) {
    return Status::Corrupt("activation: truncated shape");
  }
  // Bound each dimension before forming the element count: unchecked u32
  // dims could overflow Shape::elements() and fake a 0-byte match below.
  constexpr std::uint32_t kMaxDim = 1u << 16;
  if (*c == 0 || *h == 0 || *w == 0 || *c > kMaxDim || *h > kMaxDim ||
      *w > kMaxDim) {
    return Status::Corrupt("activation: implausible shape");
  }
  const Shape shape{int(*c), int(*h), int(*w)};
  if (reader.remaining() != shape.bytes()) {
    return Status::Corrupt("activation: payload size does not match shape");
  }
  Tensor tensor(shape);
  // Bulk-read the payload (the size was just validated) instead of an
  // Expected round trip per element on the cloud tier's hot path.
  const std::span<const std::uint8_t> raw = *reader.GetSpan(shape.bytes());
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(tensor.data(), raw.data(), raw.size());
  } else {
    for (std::size_t i = 0; i < tensor.size(); ++i) {
      std::uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= std::uint32_t(raw[i * 4 + std::size_t(b)]) << (8 * b);
      }
      float v;
      std::memcpy(&v, &bits, sizeof v);
      tensor.values()[i] = v;
    }
  }
  // A bit flip in transit can land in a float's exponent and produce
  // NaN/inf, which the suffix layers would propagate into every label
  // distance. Activations are post-ReLU bounded values: non-finite means
  // corrupt, and catching it here keeps the failure at the transport
  // boundary instead of deep inside the classifier.
  for (const float v : tensor.values()) {
    if (!std::isfinite(v)) {
      return Status::Corrupt("activation: non-finite values");
    }
  }
  return tensor;
}

void Gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  simd::ActiveKernels().gemm_f32(a, b, c, m, k, n);
}

void GemmNaive(const float* a, const float* b, float* c, int m, int k, int n) {
  // ikj loop order: streams through b and c rows; good cache behaviour for
  // the im2col layout without explicit blocking.
  for (int i = 0; i < m; ++i) {
    float* crow = c + std::size_t(i) * std::size_t(n);
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + std::size_t(i) * std::size_t(k);
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + std::size_t(p) * std::size_t(n);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

double SquaredDistance(const std::vector<float>& a, const std::vector<float>& b) {
  assert(a.size() == b.size());
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    acc += d * d;
  }
  return acc;
}

}  // namespace sieve::nn
