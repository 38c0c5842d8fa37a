// Scalar-vs-SIMD kernel equivalence: every architecture compiled into this
// binary must be BIT-exact with the scalar reference table — float DCT/IDCT
// outputs, lround rounding (half away from zero, including exact .5
// quotients), SAD over unaligned widths and strides, the row-granular
// early-termination values of the bounded SAD, and the fp32 GEMM on ragged
// shapes. Plus the dispatch machinery itself and the clamped out-of-bounds
// compensation path the region helpers guard.
#include "common/simd/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "codec/transform.h"
#include "common/rng.h"
#include "media/metrics.h"

namespace sieve::simd {
namespace {

/// Every non-scalar arch compiled into this binary and usable on this CPU.
std::vector<KernelArch> SimdArches() {
  std::vector<KernelArch> out;
  for (KernelArch arch : CompiledArches()) {
    if (arch != KernelArch::kScalar && ArchSupported(arch)) out.push_back(arch);
  }
  return out;
}

/// Sets (or, for nullopt, unsets) SIEVE_KERNEL_ARCH for one scope and
/// restores the caller's value afterwards.
class ScopedArchEnv {
 public:
  explicit ScopedArchEnv(std::optional<std::string> value) {
    if (const char* v = std::getenv(kVar)) saved_ = v;
    if (value) {
      setenv(kVar, value->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  ~ScopedArchEnv() {
    if (saved_) {
      setenv(kVar, saved_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  ScopedArchEnv(const ScopedArchEnv&) = delete;
  ScopedArchEnv& operator=(const ScopedArchEnv&) = delete;

 private:
  static constexpr const char* kVar = "SIEVE_KERNEL_ARCH";
  std::optional<std::string> saved_;
};

TEST(KernelDispatch, ScalarAlwaysCompiledAndBestArchSupported) {
  EXPECT_TRUE(ArchCompiled(KernelArch::kScalar));
  EXPECT_TRUE(ArchSupported(BestArch()));
  const auto arches = CompiledArches();
  EXPECT_GE(arches.size(), 1u);
  EXPECT_EQ(arches.front(), KernelArch::kScalar);
}

TEST(KernelDispatch, BestArchIsAvx2OnAvx2Hardware) {
  ScopedArchEnv unset(std::nullopt);
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(BestArch(), KernelArch::kAvx2);
    return;
  }
#endif
  EXPECT_EQ(BestArch(), KernelArch::kScalar);
}

TEST(KernelDispatch, EnvAcceptsScalarAndAvx2Only) {
  KernelArch hardware_best;
  {
    ScopedArchEnv unset(std::nullopt);
    KernelArch parsed;
    EXPECT_FALSE(KernelArchFromEnv(&parsed));
    hardware_best = BestArch();
  }
  {
    ScopedArchEnv pin("scalar");
    KernelArch parsed = KernelArch::kAvx2;
    ASSERT_TRUE(KernelArchFromEnv(&parsed));
    EXPECT_EQ(parsed, KernelArch::kScalar);
    EXPECT_EQ(BestArch(), KernelArch::kScalar);
  }
  {
    ScopedArchEnv pin("avx2");
    KernelArch parsed = KernelArch::kScalar;
    ASSERT_TRUE(KernelArchFromEnv(&parsed));
    EXPECT_EQ(parsed, KernelArch::kAvx2);
    EXPECT_EQ(BestArch(), hardware_best);  // avx2 pin honored only if supported
  }
  for (const char* rejected : {"sse2", "neon", "AVX2", "avx", "", "garbage"}) {
    ScopedArchEnv pin(rejected);
    KernelArch parsed;
    EXPECT_FALSE(KernelArchFromEnv(&parsed)) << '"' << rejected << '"';
    EXPECT_EQ(BestArch(), hardware_best) << '"' << rejected << '"';
  }
}

TEST(KernelDispatch, KernelsForFallsBackToScalarWhenNotCompiled) {
  for (KernelArch arch : {KernelArch::kScalar, KernelArch::kAvx2}) {
    const KernelTable& table = KernelsFor(arch);
    if (!ArchCompiled(arch)) {
      EXPECT_STREQ(table.name, "scalar");
    } else {
      EXPECT_STREQ(table.name, KernelArchName(arch));
    }
  }
}

TEST(KernelDispatch, ScopedOverrideSwitchesAndRestores) {
  const KernelArch before = ActiveArch();
  {
    ScopedKernelArch scalar(KernelArch::kScalar);
    EXPECT_EQ(ActiveArch(), KernelArch::kScalar);
    EXPECT_STREQ(ActiveKernels().name, "scalar");
    for (KernelArch arch : SimdArches()) {
      ScopedKernelArch inner(arch);
      EXPECT_EQ(ActiveArch(), arch);
    }
    EXPECT_EQ(ActiveArch(), KernelArch::kScalar);
  }
  EXPECT_EQ(ActiveArch(), before);
}

// ---------------------------------------------------------------- DCT/IDCT --

TEST(KernelEquivalence, ForwardDctBitExact) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(101);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 500; ++trial) {
      std::int16_t in[kBlockLen];
      // Centered pixels and residuals live in [-255, 255]; test wider.
      for (auto& v : in) v = std::int16_t(rng.UniformInt(-2048, 2048));
      float a[kBlockLen], b[kBlockLen];
      scalar.fdct8x8(in, a);
      simd.fdct8x8(in, b);
      ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0)
          << KernelArchName(arch) << " fdct differs at trial " << trial;
    }
  }
}

TEST(KernelEquivalence, InverseDctBitExactIncludingRoundingAndClamp) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(102);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 500; ++trial) {
      float in[kBlockLen];
      for (int i = 0; i < kBlockLen; ++i) {
        switch (trial % 4) {
          case 0:  // typical dequantized coefficients
            in[i] = float(rng.Uniform(-2500.0, 2500.0));
            break;
          case 1:  // exact halves: pins round-half-away-from-zero
            in[i] = float(rng.UniformInt(-300, 300)) + 0.5f;
            break;
          case 2:  // values whose spatial output brushes the int16 clamp
            in[i] = float(rng.Uniform(-60000.0, 60000.0));
            break;
          default:  // tiny magnitudes around +-0.5
            in[i] = float(rng.Uniform(-1.5, 1.5));
            break;
        }
      }
      std::int16_t a[kBlockLen], b[kBlockLen];
      scalar.idct8x8(in, a);
      simd.idct8x8(in, b);
      ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0)
          << KernelArchName(arch) << " idct differs at trial " << trial;
    }
  }
}

TEST(KernelEquivalence, QuantizeDequantizeBitExact) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(103);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int qp : {1, 10, 26, 40, 51}) {
      const codec::QuantTable q = codec::MakeLumaQuant(qp);
      for (int trial = 0; trial < 200; ++trial) {
        float dct[kBlockLen];
        for (int i = 0; i < kBlockLen; ++i) {
          if (trial % 2 == 0) {
            dct[i] = float(rng.Uniform(-2500.0, 2500.0));
          } else {
            // Exact .5 quotients: (n + 0.5) * step divides back to n.5
            // exactly (step * 0.5 is exact in float), pinning the rounding.
            dct[i] = (float(rng.UniformInt(-40, 40)) + 0.5f) *
                     float(q.step[std::size_t(i)]);
          }
        }
        std::int32_t qa[kBlockLen], qb[kBlockLen];
        scalar.quantize8x8(dct, q.step.data(), qa);
        simd.quantize8x8(dct, q.step.data(), qb);
        ASSERT_EQ(std::memcmp(qa, qb, sizeof(qa)), 0)
            << KernelArchName(arch) << " quantize differs, qp " << qp;
        float da[kBlockLen], db[kBlockLen];
        scalar.dequantize8x8(qa, q.step.data(), da);
        simd.dequantize8x8(qb, q.step.data(), db);
        ASSERT_EQ(std::memcmp(da, db, sizeof(da)), 0)
            << KernelArchName(arch) << " dequantize differs, qp " << qp;
      }
    }
  }
}

TEST(KernelEquivalence, FullTransformRoundTripMatchesAcrossArches) {
  // The composition the codec actually runs: fdct -> quantize -> dequantize
  // -> idct, compared block-for-block across every table.
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  const codec::QuantTable q = codec::MakeLumaQuant(26);
  Rng rng(104);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 200; ++trial) {
      std::int16_t in[kBlockLen];
      for (auto& v : in) v = std::int16_t(rng.UniformInt(-128, 127));
      std::int16_t rec_a[kBlockLen], rec_b[kBlockLen];
      float freq[kBlockLen];
      std::int32_t coeff[kBlockLen];
      scalar.fdct8x8(in, freq);
      scalar.quantize8x8(freq, q.step.data(), coeff);
      scalar.dequantize8x8(coeff, q.step.data(), freq);
      scalar.idct8x8(freq, rec_a);
      simd.fdct8x8(in, freq);
      simd.quantize8x8(freq, q.step.data(), coeff);
      simd.dequantize8x8(coeff, q.step.data(), freq);
      simd.idct8x8(freq, rec_b);
      ASSERT_EQ(std::memcmp(rec_a, rec_b, sizeof(rec_a)), 0)
          << KernelArchName(arch) << " round trip differs at trial " << trial;
    }
  }
}

// --------------------------------------------------------------------- SAD --

TEST(KernelEquivalence, SadRowAllWidths) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(105);
  std::vector<std::uint8_t> a(256), b(256);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 50; ++trial) {
      for (auto& v : a) v = std::uint8_t(rng.UniformInt(0, 255));
      for (auto& v : b) v = std::uint8_t(rng.UniformInt(0, 255));
      // Every width 1..64 covers the 16-lane blocks, the 8-lane step, and
      // the scalar tail (unaligned widths), plus unaligned base pointers.
      for (int w = 1; w <= 64; ++w) {
        const int off = trial % 3;  // misalign the loads
        ASSERT_EQ(scalar.sad_row(a.data() + off, b.data() + off, w),
                  simd.sad_row(a.data() + off, b.data() + off, w))
            << KernelArchName(arch) << " width " << w;
      }
    }
  }
}

TEST(KernelEquivalence, Sad16xHAndBoundedRowGranularValues) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(106);
  const int stride_a = 37, stride_b = 41;  // non-equal, non-multiple-of-16
  std::vector<std::uint8_t> a(std::size_t(stride_a) * 64),
      b(std::size_t(stride_b) * 64);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 40; ++trial) {
      for (auto& v : a) v = std::uint8_t(rng.UniformInt(0, 255));
      for (auto& v : b) v = std::uint8_t(rng.UniformInt(0, 255));
      for (int h : {1, 3, 8, 16}) {
        const std::uint64_t exact =
            scalar.sad16xh(a.data(), stride_a, b.data(), stride_b, h);
        EXPECT_EQ(exact, simd.sad16xh(a.data(), stride_a, b.data(), stride_b, h))
            << KernelArchName(arch) << " h " << h;
        for (int w : {5, 8, 13, 16, 21}) {
          // All bound regimes: impossible, mid-scan, and beyond-exact. The
          // return value (not just the decision) must match because both
          // tables check the bound at the same row boundaries.
          const std::uint64_t full =
              scalar.sad_bounded(a.data(), stride_a, b.data(), stride_b, w, h,
                                 ~std::uint64_t{0});
          for (std::uint64_t bound :
               {std::uint64_t{1}, full / 2 + 1, full, full + 1, full + 1000}) {
            EXPECT_EQ(scalar.sad_bounded(a.data(), stride_a, b.data(),
                                         stride_b, w, h, bound),
                      simd.sad_bounded(a.data(), stride_a, b.data(), stride_b,
                                       w, h, bound))
                << KernelArchName(arch) << " w " << w << " h " << h
                << " bound " << bound;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------- analysis pass --

TEST(KernelEquivalence, AnalysisBlockKernelsOnInteriorAndBorderBlocks) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  // A 37x29 plane sized exactly to its pixels: the blocks at the last row
  // and column read its final bytes, and the odd stride misaligns rows.
  const int w = 37, h = 29;
  Rng rng(108);
  std::vector<std::uint8_t> a(std::size_t(w) * h), b(a.size());
  for (int trial = 0; trial < 4; ++trial) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      switch (trial) {
        case 0:  // noise
          a[i] = std::uint8_t(rng.UniformInt(0, 255));
          b[i] = std::uint8_t(rng.UniformInt(0, 255));
          break;
        case 1:  // small differences, where the deadzone bites
          a[i] = std::uint8_t(rng.UniformInt(100, 140));
          b[i] = std::uint8_t(std::clamp(a[i] + rng.UniformInt(-6, 6), 0, 255));
          break;
        case 2:  // extremes: checkerboard 0/255 against its inverse
          a[i] = (i + i / w) % 2 ? 255 : 0;
          b[i] = std::uint8_t(255 - a[i]);
          break;
        default:  // flat
          a[i] = 200;
          b[i] = 200;
      }
    }
    for (KernelArch arch : SimdArches()) {
      const KernelTable& simd = KernelsFor(arch);
      for (int y = 0; y + kBlockDim <= h; ++y) {
        for (int x = 0; x + kBlockDim <= w; ++x) {
          const std::uint8_t* pa = a.data() + std::size_t(y) * w + x;
          // The reference block sits at the mirrored position, so corner
          // blocks meet interior ones.
          const std::uint8_t* pb = b.data() +
                                   std::size_t(h - kBlockDim - y) * w +
                                   (w - kBlockDim - x);
          ASSERT_EQ(scalar.intra_dev8x8(pa, w), simd.intra_dev8x8(pa, w))
              << KernelArchName(arch) << " trial " << trial << " at " << x
              << "," << y;
          for (int dz : {0, 1, 4, 17, 254, 255}) {
            ASSERT_EQ(scalar.deadzone_sad8x8(pa, w, pb, w, dz),
                      simd.deadzone_sad8x8(pa, w, pb, w, dz))
                << KernelArchName(arch) << " trial " << trial << " at " << x
                << "," << y << " deadzone " << dz;
          }
        }
      }
    }
  }
  // Spot values of the reference itself: a flat block has no texture, the
  // checkerboard the most, and deadzone 255 hides every difference.
  EXPECT_EQ(scalar.intra_dev8x8(a.data(), w), 0u);
  std::vector<std::uint8_t> checker(kBlockLen);
  for (int i = 0; i < kBlockLen; ++i) checker[i] = (i + i / 8) % 2 ? 255 : 0;
  EXPECT_EQ(scalar.intra_dev8x8(checker.data(), 8), 64u * 64u * 255u / 2u);
  std::vector<std::uint8_t> zeros(kBlockLen, 0);
  EXPECT_EQ(scalar.deadzone_sad8x8(checker.data(), 8, zeros.data(), 8, 255), 0u);
  EXPECT_EQ(scalar.deadzone_sad8x8(checker.data(), 8, zeros.data(), 8, 0),
            32u * 255u);
}

TEST(KernelEquivalence, Downsample2xRowAllWidths) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  Rng rng(109);
  for (KernelArch arch : SimdArches()) {
    const KernelTable& simd = KernelsFor(arch);
    for (int trial = 0; trial < 20; ++trial) {
      // Widths 1..100 cover the 32- and 16-output vector steps and the
      // scalar tail; the source rows end exactly at their last read byte.
      for (int w = 1; w <= 100; ++w) {
        const int off = trial % 3;  // misalign the loads and the store
        std::vector<std::uint8_t> r0(std::size_t(2 * w + off)), r1(r0.size());
        for (auto& v : r0) v = std::uint8_t(rng.UniformInt(0, 255));
        for (auto& v : r1) v = std::uint8_t(trial == 1 ? 255 : rng.UniformInt(0, 255));
        if (trial == 1) std::fill(r0.begin(), r0.end(), 255);  // saturation edge
        // One canary byte past the row: no table may write beyond w.
        std::vector<std::uint8_t> want(std::size_t(w + off + 1), 0xA5),
            got(want.size(), 0xA5);
        scalar.downsample2x_row(r0.data() + off, r1.data() + off,
                                want.data() + off, w);
        simd.downsample2x_row(r0.data() + off, r1.data() + off,
                              got.data() + off, w);
        ASSERT_EQ(got, want) << KernelArchName(arch) << " width " << w;
      }
    }
  }
  const std::uint8_t r0[] = {1, 2, 255, 255}, r1[] = {0, 0, 255, 254};
  std::uint8_t out[2] = {};
  scalar.downsample2x_row(r0, r1, out, 2);
  EXPECT_EQ(out[0], 1);    // (3 + 2) / 4
  EXPECT_EQ(out[1], 255);  // (1019 + 2) / 4
}

// --------------------------------------------------------------- fp32 GEMM --

std::vector<float> RunGemmF32(const KernelTable& table,
                              const std::vector<float>& a,
                              const std::vector<float>& b, int m, int k,
                              int n) {
  // Pre-filled with NaN: every table must overwrite all of c.
  std::vector<float> c(std::size_t(m) * n, std::nanf(""));
  table.gemm_f32(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

TEST(KernelEquivalence, GemmF32BitExactOnRaggedShapes) {
  const KernelTable& scalar = KernelsFor(KernelArch::kScalar);
  // m around the 6-row (AVX2) and 4-row (blocked) tiles, n around the
  // 16-column tile and the 8-lane vector, k = 1 and k past the 256 panel,
  // plus the backbone's conv shapes.
  const int shapes[][3] = {
      {1, 1, 1},    {5, 1, 17},    {7, 1, 3},      {6, 16, 16},
      {11, 27, 16}, {13, 257, 33}, {17, 300, 40},  {4, 512, 15},
      {25, 31, 9},  {2, 600, 7},   {6, 7, 8},      {64, 144, 32},
      {144, 576, 64}};
  Rng rng(108);
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a(std::size_t(m) * k), b(std::size_t(k) * n);
    for (auto& v : a) v = float(rng.Uniform(-2.0, 2.0));
    for (auto& v : b) v = float(rng.Uniform(-2.0, 2.0));
    // Exact zeros mixed in, like post-ReLU activations.
    for (std::size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;
    const std::vector<float> want = RunGemmF32(scalar, a, b, m, k, n);
    for (KernelArch arch : SimdArches()) {
      const std::vector<float> got = RunGemmF32(KernelsFor(arch), a, b, m, k, n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * 4), 0)
          << KernelArchName(arch) << " m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, GemmF32SumsFromPositiveZeroWithoutSkipping) {
  // Every product is -0: the sum starts at +0.0f, and +0 + -0 = +0.
  const std::vector<float> a = {-1.0f, -2.0f, 3.0f};
  const std::vector<float> b = {0.0f, 0.0f, -0.0f};
  // 0 * inf is NaN: no table may skip a zero a entry.
  const std::vector<float> a_inf = {0.0f, 1.0f};
  const std::vector<float> b_inf = {std::numeric_limits<float>::infinity(),
                                    1.0f};
  for (KernelArch arch : CompiledArches()) {
    if (!ArchSupported(arch)) continue;
    const KernelTable& table = KernelsFor(arch);
    const std::vector<float> zero = RunGemmF32(table, a, b, 1, 3, 1);
    EXPECT_EQ(zero[0], 0.0f) << KernelArchName(arch);
    EXPECT_FALSE(std::signbit(zero[0])) << KernelArchName(arch);
    const std::vector<float> nan = RunGemmF32(table, a_inf, b_inf, 1, 2, 1);
    EXPECT_TRUE(std::isnan(nan[0])) << KernelArchName(arch);
  }
}

TEST(KernelEquivalence, RegionSadClampedOutOfBoundsPathDispatchIndependent) {
  // The clamped compensation path (blocks hanging off the plane edges) and
  // the interior fast path must agree for every dispatch choice — this is
  // the seam motion search relies on at frame borders.
  ScopedKernelArch guard(ActiveArch());  // restore after the switches below
  media::Plane pa(48, 40), pb(48, 40);
  Rng rng(107);
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 48; ++x) {
      pa.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
      pb.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
    }
  }
  struct Case {
    int ax, ay, bx, by, w, h;
  };
  const Case cases[] = {
      {-3, -3, -5, 36, 16, 16},  // clamped both regions
      {4, 4, 9, 7, 16, 16},      // interior, w == 16 kernel
      {2, 3, 5, 1, 13, 9},       // interior, unaligned width
      {40, 30, 44, 36, 16, 16},  // clamped bottom-right
  };
  for (const Case& c : cases) {
    SetActiveKernels(KernelArch::kScalar);
    const std::uint64_t scalar_sad =
        media::RegionSad(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h);
    EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h,
                                      scalar_sad + 1),
              scalar_sad);  // loose bound stays exact
    const std::uint64_t scalar_tight = media::RegionSadBounded(
        pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h, scalar_sad / 2);
    for (KernelArch arch : SimdArches()) {
      SetActiveKernels(arch);
      EXPECT_EQ(media::RegionSad(pa, c.ax, c.ay, pb, c.bx, c.by, c.w, c.h),
                scalar_sad)
          << KernelArchName(arch);
      EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w,
                                        c.h, scalar_sad + 1),
                scalar_sad)
          << KernelArchName(arch);
      // Saturated return values match too: row-granular early exit on both.
      EXPECT_EQ(media::RegionSadBounded(pa, c.ax, c.ay, pb, c.bx, c.by, c.w,
                                        c.h, scalar_sad / 2),
                scalar_tight)
          << KernelArchName(arch);
    }
  }
}

}  // namespace
}  // namespace sieve::simd
