// Scalar reference kernels + the dispatch machinery. This TU (like all of
// sieve_core) is compiled with -ffp-contract=off: the bit-exactness contract
// between the scalar and AVX2 tables depends on no mul+add pair being
// contracted into an FMA on either side.
#include "common/simd/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/simd/kernels_internal.h"

namespace sieve::simd {

DctTables::DctTables() {
  const double pi = std::acos(-1.0);
  for (int k = 0; k < kBlockDim; ++k) {
    const double s =
        k == 0 ? std::sqrt(1.0 / kBlockDim) : std::sqrt(2.0 / kBlockDim);
    for (int n = 0; n < kBlockDim; ++n) {
      const float c =
          float(s * std::cos((2.0 * n + 1.0) * k * pi / (2.0 * kBlockDim)));
      basis[k * kBlockDim + n] = c;
      basis_t[n * kBlockDim + k] = c;
    }
  }
}

const DctTables& Tables() noexcept {
  static const DctTables tables;
  return tables;
}

namespace {

// ------------------------------------------------------------ scalar SAD --

std::uint32_t SadRowScalar(const std::uint8_t* a, const std::uint8_t* b,
                           int w) {
  std::uint32_t acc = 0;
  for (int x = 0; x < w; ++x) {
    acc += std::uint32_t(std::abs(int(a[x]) - int(b[x])));
  }
  return acc;
}

std::uint64_t Sad16xHScalar(const std::uint8_t* a, int a_stride,
                            const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowScalar(a + std::ptrdiff_t(y) * a_stride,
                        b + std::ptrdiff_t(y) * b_stride, 16);
  }
  return acc;
}

std::uint64_t SadBoundedScalar(const std::uint8_t* a, int a_stride,
                               const std::uint8_t* b, int b_stride, int w,
                               int h, std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowScalar(a + std::ptrdiff_t(y) * a_stride,
                        b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------ scalar transforms --

void Fdct8x8Scalar(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int x = 0; x < kBlockDim; ++x) {
        acc += float(in[y * kBlockDim + x]) * t.basis[k * kBlockDim + x];
      }
      tmp[y * kBlockDim + k] = acc;
    }
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]
  for (int v = 0; v < kBlockDim; ++v) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int y = 0; y < kBlockDim; ++y) {
        acc += tmp[y * kBlockDim + k] * t.basis[v * kBlockDim + y];
      }
      out[v * kBlockDim + k] = acc;
    }
  }
}

/// std::lround + int16 clamp: the rounding every idct table must replicate.
std::int16_t RoundClampToInt16(float v) {
  long r = std::lround(v);
  if (r < -32768) r = -32768;
  if (r > 32767) r = 32767;
  return std::int16_t(r);
}

void Idct8x8Scalar(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int k = 0; k < kBlockDim; ++k) {
      float acc = 0;
      for (int v = 0; v < kBlockDim; ++v) {
        acc += in[v * kBlockDim + k] * t.basis[v * kBlockDim + y];
      }
      tmp[y * kBlockDim + k] = acc;
    }
  }
  // Rows: out[y][x] = sum_k tmp[y][k] * C[k][x]
  for (int y = 0; y < kBlockDim; ++y) {
    for (int x = 0; x < kBlockDim; ++x) {
      float acc = 0;
      for (int k = 0; k < kBlockDim; ++k) {
        acc += tmp[y * kBlockDim + k] * t.basis[k * kBlockDim + x];
      }
      out[y * kBlockDim + x] = RoundClampToInt16(acc);
    }
  }
}

void Quantize8x8Scalar(const float* dct, const std::int32_t* step,
                       std::int32_t* out) {
  for (int i = 0; i < kBlockLen; ++i) {
    out[i] = std::int32_t(std::lround(dct[i] / float(step[i])));
  }
}

void Dequantize8x8Scalar(const std::int32_t* in, const std::int32_t* step,
                         float* out) {
  for (int i = 0; i < kBlockLen; ++i) {
    out[i] = float(in[i]) * float(step[i]);
  }
}

// ------------------------------------------------------ scalar int8 GEMM --

// The reference semantics for gemm_u8s8. The inner loops walk the packed-B
// layout (k-pairs outer, columns inner) exactly like the AVX2 table;
// integer accumulation is associative for these magnitudes, so any table
// order (including the AVX2 table's 4-row M tiling) is bit-identical
// anyway.
void GemmU8S8Scalar(const std::uint8_t* a, int lda, int m,
                    const std::int8_t* b_packed, int k, int n_cols,
                    std::int32_t* out, int ldo) {
  const int pairs = (k + 1) / 2;
  for (int i = 0; i < m; ++i) {
    const std::uint8_t* arow = a + std::ptrdiff_t(i) * lda;
    std::int32_t* orow = out + std::ptrdiff_t(i) * ldo;
    for (int n = 0; n < n_cols; ++n) orow[n] = 0;
    for (int p = 0; p < pairs; ++p) {
      const std::int32_t a0 = arow[2 * p];
      const std::int32_t a1 = (2 * p + 1 < k) ? arow[2 * p + 1] : 0;
      const std::int8_t* row = b_packed + std::ptrdiff_t(p) * n_cols * 2;
      for (int n = 0; n < n_cols; ++n) {
        orow[n] += a0 * std::int32_t(row[2 * n]) +
                   a1 * std::int32_t(row[2 * n + 1]);
      }
    }
  }
}

// Reference semantics for quantize_act_u8: one IEEE multiply, one IEEE add,
// a truncating float->int convert, then the [0, 255] clamp. The AVX2
// table runs the identical op sequence per lane.
void QuantizeActU8Scalar(const float* x, std::size_t len, float inv_scale,
                         float bias, std::uint8_t* out) {
  for (std::size_t i = 0; i < len; ++i) {
    const std::int32_t code = std::int32_t(x[i] * inv_scale + bias);
    out[i] = std::uint8_t(code < 0 ? 0 : (code > 255 ? 255 : code));
  }
}

// ------------------------------------------------------ scalar fp32 GEMM --

// The reference semantics for gemm_f32: ikj order, so each c[i][j] starts
// at +0.0f and takes a[i][p] * b[p][j] for p ascending, one rounded
// multiply and one rounded add per term. No zero-skipping: a skipped
// 0 * inf would hide the NaN the AVX2 table produces.
void GemmF32Scalar(const float* a, const float* b, float* c, int m, int k,
                   int n) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + std::ptrdiff_t(i) * n;
    const float* arow = a + std::ptrdiff_t(i) * k;
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + std::ptrdiff_t(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ------------------------------------------------- scalar analysis pass --

std::uint32_t IntraDev8x8Scalar(const std::uint8_t* p, int stride) {
  int sum = 0;
  for (int y = 0; y < kBlockDim; ++y) {
    const std::uint8_t* row = p + std::ptrdiff_t(y) * stride;
    for (int x = 0; x < kBlockDim; ++x) sum += row[x];
  }
  int dev = 0;
  for (int y = 0; y < kBlockDim; ++y) {
    const std::uint8_t* row = p + std::ptrdiff_t(y) * stride;
    for (int x = 0; x < kBlockDim; ++x) dev += std::abs(kBlockLen * row[x] - sum);
  }
  return std::uint32_t(dev);
}

std::uint32_t DeadzoneSad8x8Scalar(const std::uint8_t* a, int a_stride,
                                   const std::uint8_t* b, int b_stride,
                                   int deadzone) {
  std::uint32_t acc = 0;
  for (int y = 0; y < kBlockDim; ++y) {
    const std::uint8_t* ra = a + std::ptrdiff_t(y) * a_stride;
    const std::uint8_t* rb = b + std::ptrdiff_t(y) * b_stride;
    for (int x = 0; x < kBlockDim; ++x) {
      const int d = std::abs(int(ra[x]) - int(rb[x]));
      if (d > deadzone) acc += std::uint32_t(d - deadzone);
    }
  }
  return acc;
}

void Downsample2xRowScalar(const std::uint8_t* r0, const std::uint8_t* r1,
                           std::uint8_t* out, int w) {
  for (int x = 0; x < w; ++x) {
    const unsigned sum =
        unsigned(r0[2 * x]) + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1];
    out[x] = static_cast<std::uint8_t>((sum + 2) / 4);
  }
}

const KernelTable kScalarTable = {
    "scalar",        SadRowScalar,      Sad16xHScalar,      SadBoundedScalar,
    Fdct8x8Scalar,   Idct8x8Scalar,     Quantize8x8Scalar,  Dequantize8x8Scalar,
    GemmU8S8Scalar,  QuantizeActU8Scalar, GemmF32Scalar,    IntraDev8x8Scalar,
    DeadzoneSad8x8Scalar, Downsample2xRowScalar,
};

// --------------------------------------------------------------- dispatch --

bool CpuSupportsAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

std::size_t PackedGemmBSize(int k, int n_cols) noexcept {
  return std::size_t((k + 1) / 2) * std::size_t(n_cols) * 2;
}

void PackGemmB(const std::int8_t* b, int k, int n_cols,
               std::int8_t* packed) noexcept {
  const int pairs = (k + 1) / 2;
  for (int p = 0; p < pairs; ++p) {
    std::int8_t* row = packed + std::ptrdiff_t(p) * n_cols * 2;
    for (int n = 0; n < n_cols; ++n) {
      row[2 * n] = b[std::ptrdiff_t(n) * k + 2 * p];
      row[2 * n + 1] =
          (2 * p + 1 < k) ? b[std::ptrdiff_t(n) * k + 2 * p + 1] : 0;
    }
  }
}

const char* KernelArchName(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar: return "scalar";
    case KernelArch::kAvx2: return "avx2";
  }
  return "unknown";
}

bool ArchCompiled(KernelArch arch) noexcept {
  switch (arch) {
    case KernelArch::kScalar: return true;
    case KernelArch::kAvx2: return Avx2KernelTable() != nullptr;
  }
  return false;
}

bool ArchSupported(KernelArch arch) noexcept {
  if (!ArchCompiled(arch)) return false;
  // AVX2 presence is CPUID-verified so a generic x86 build stays safe on
  // cores that lack it.
  if (arch == KernelArch::kAvx2) return CpuSupportsAvx2();
  return true;
}

const KernelTable& KernelsFor(KernelArch arch) noexcept {
  if (arch == KernelArch::kAvx2) {
    if (const KernelTable* t = Avx2KernelTable()) return *t;
  }
  return kScalarTable;
}

std::vector<KernelArch> CompiledArches() {
  std::vector<KernelArch> arches{KernelArch::kScalar};
  if (ArchCompiled(KernelArch::kAvx2)) arches.push_back(KernelArch::kAvx2);
  return arches;
}

bool KernelArchFromEnv(KernelArch* out) noexcept {
  const char* v = std::getenv("SIEVE_KERNEL_ARCH");
  if (v == nullptr) return false;
  if (std::strcmp(v, "scalar") == 0) { *out = KernelArch::kScalar; return true; }
  if (std::strcmp(v, "avx2") == 0)   { *out = KernelArch::kAvx2;   return true; }
  return false;  // malformed: ignored, hardware-best wins
}

KernelArch BestArch() noexcept {
  KernelArch forced;
  if (KernelArchFromEnv(&forced) && ArchSupported(forced)) return forced;
  if (ArchSupported(KernelArch::kAvx2)) return KernelArch::kAvx2;
  return KernelArch::kScalar;
}

const KernelTable& ActiveKernels() noexcept {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    table = &KernelsFor(BestArch());
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void SetActiveKernels(KernelArch arch) noexcept {
  g_active.store(&KernelsFor(arch), std::memory_order_release);
}

KernelArch ActiveArch() noexcept {
  return &ActiveKernels() == Avx2KernelTable() ? KernelArch::kAvx2
                                               : KernelArch::kScalar;
}

}  // namespace sieve::simd
