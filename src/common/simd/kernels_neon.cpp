// NEON kernel table — same bit-exactness construction as the SSE2 one:
// vectorize across independent outputs, accumulate each lane's inner sum in
// scalar order, and use only separate vmulq_f32/vaddq_f32 (never vmlaq/fmla,
// which would fuse without the intermediate rounding the scalar path has).
// Rounding replicates std::lround via truncate + exact-fraction compare.
// The fp32 GEMM is the portable blocked loop (kernels_internal.h).
//
// Compiled only under __ARM_NEON; elsewhere the accessor returns nullptr and
// the dispatcher falls back to scalar.
#include "common/simd/kernels_internal.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SIEVE_HAVE_NEON 1
#include <arm_neon.h>
#else
#define SIEVE_HAVE_NEON 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_NEON

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint32_t HorizontalAddU32(uint32x4_t v) {
#if defined(__aarch64__)
  return vaddvq_u32(v);
#else
  const uint64x2_t pair = vpaddlq_u32(v);
  return std::uint32_t(vgetq_lane_u64(pair, 0) + vgetq_lane_u64(pair, 1));
#endif
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const uint8x16_t d = vabdq_u8(vld1q_u8(a), vld1q_u8(b));
  return HorizontalAddU32(vpaddlq_u16(vpaddlq_u8(d)));
}

std::uint32_t SadRowNeon(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 16 <= w; x += 16) acc += SadRow16(a + x, b + x);
  if (x + 8 <= w) {
    const uint8x8_t d = vabd_u8(vld1_u8(a + x), vld1_u8(b + x));
    const uint32x2_t pair = vpaddl_u16(vpaddl_u8(d));
    acc += vget_lane_u32(pair, 0) + vget_lane_u32(pair, 1);
    x += 8;
  }
  for (; x < w; ++x) {
    acc += std::uint32_t(a[x] < b[x] ? b[x] - a[x] : a[x] - b[x]);
  }
  return acc;
}

std::uint64_t Sad16xHNeon(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedNeon(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowNeon(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 4 lanes (half away from zero), exact for |v| < 2^23.
inline int32x4_t LroundF32(float32x4_t v) {
  const int32x4_t trunc = vcvtq_s32_f32(v);        // toward zero
  const float32x4_t trunc_f = vcvtq_f32_s32(trunc);
  const float32x4_t frac = vsubq_f32(v, trunc_f);  // exact
  const uint32x4_t away =
      vcgeq_f32(vabsq_f32(frac), vdupq_n_f32(0.5f));
  const uint32x4_t neg = vcltq_f32(v, vdupq_n_f32(0.0f));
  const int32x4_t round_up =
      vreinterpretq_s32_u32(vandq_u32(away, vdupq_n_u32(1)));
  const int32x4_t neg_mask = vreinterpretq_s32_u32(neg);
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const int32x4_t adjust =
      vsubq_s32(veorq_s32(round_up, neg_mask), neg_mask);
  return vaddq_s32(trunc, adjust);
}

void Fdct8x8Neon(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; lanes = k, scan order = x.
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int x = 0; x < kBlockDim; ++x) {
      const float32x4_t s = vdupq_n_f32(float(in[y * kBlockDim + x]));
      acc_lo = vaddq_f32(acc_lo,
                         vmulq_f32(s, vld1q_f32(t.basis_t + x * kBlockDim)));
      acc_hi = vaddq_f32(
          acc_hi, vmulq_f32(s, vld1q_f32(t.basis_t + x * kBlockDim + 4)));
    }
    vst1q_f32(tmp + y * kBlockDim, acc_lo);
    vst1q_f32(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int y = 0; y < kBlockDim; ++y) {
      const float32x4_t s = vdupq_n_f32(t.basis[v * kBlockDim + y]);
      acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(tmp + y * kBlockDim), s));
      acc_hi =
          vaddq_f32(acc_hi, vmulq_f32(vld1q_f32(tmp + y * kBlockDim + 4), s));
    }
    vst1q_f32(out + v * kBlockDim, acc_lo);
    vst1q_f32(out + v * kBlockDim + 4, acc_hi);
  }
}

void Idct8x8Neon(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int v = 0; v < kBlockDim; ++v) {
      const float32x4_t s = vdupq_n_f32(t.basis[v * kBlockDim + y]);
      acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(in + v * kBlockDim), s));
      acc_hi =
          vaddq_f32(acc_hi, vmulq_f32(vld1q_f32(in + v * kBlockDim + 4), s));
    }
    vst1q_f32(tmp + y * kBlockDim, acc_lo);
    vst1q_f32(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const float32x4_t hi_clamp = vdupq_n_f32(32767.0f);
  const float32x4_t lo_clamp = vdupq_n_f32(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    float32x4_t acc_lo = vdupq_n_f32(0.0f);
    float32x4_t acc_hi = vdupq_n_f32(0.0f);
    for (int k = 0; k < kBlockDim; ++k) {
      const float32x4_t s = vdupq_n_f32(tmp[y * kBlockDim + k]);
      acc_lo =
          vaddq_f32(acc_lo, vmulq_f32(s, vld1q_f32(t.basis + k * kBlockDim)));
      acc_hi = vaddq_f32(acc_hi,
                         vmulq_f32(s, vld1q_f32(t.basis + k * kBlockDim + 4)));
    }
    // Clamp in float THEN round: equivalent to scalar's lround-then-clamp
    // for finite inputs, and keeps the convert in exact int32 range.
    acc_lo = vmaxq_f32(vminq_f32(acc_lo, hi_clamp), lo_clamp);
    acc_hi = vmaxq_f32(vminq_f32(acc_hi, hi_clamp), lo_clamp);
    const int16x8_t packed =
        vcombine_s16(vqmovn_s32(LroundF32(acc_lo)), vqmovn_s32(LroundF32(acc_hi)));
    vst1q_s16(out + y * kBlockDim, packed);
  }
}

void Quantize8x8Neon(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const float32x4_t num = vld1q_f32(dct + i);
    const float32x4_t den = vcvtq_f32_s32(vld1q_s32(step + i));
#if defined(__aarch64__)
    const float32x4_t v = vdivq_f32(num, den);  // IEEE-exact division
    vst1q_s32(out + i, LroundF32(v));
#else
    // ARMv7 NEON has no vector divide; IEEE-exact scalar division per lane.
    float n[4], d[4];
    vst1q_f32(n, num);
    vst1q_f32(d, den);
    alignas(16) float q[4];
    for (int lane = 0; lane < 4; ++lane) q[lane] = n[lane] / d[lane];
    vst1q_s32(out + i, LroundF32(vld1q_f32(q)));
#endif
  }
}

void Dequantize8x8Neon(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const float32x4_t a = vcvtq_f32_s32(vld1q_s32(in + i));
    const float32x4_t b = vcvtq_f32_s32(vld1q_s32(step + i));
    vst1q_f32(out + i, vmulq_f32(a, b));
  }
}

// -------------------------------------------------------------- int8 GEMM --

// 8 output columns per step. vld2_s8 deinterleaves a packed-B row into the
// even-k and odd-k weight vectors; vmlal_n_s16 is an exact integer
// widening multiply-accumulate (the float no-fma rule does not apply to
// integer lanes), so the accumulators match the scalar reference bit for
// bit.
void GemmU8S8Row1Neon(const std::uint8_t* a, const std::int8_t* b_packed,
                      int k, int n_cols, std::int32_t* out) {
  const int pairs = (k + 1) / 2;
  int n = 0;
  for (; n + 8 <= n_cols; n += 8) {
    int32x4_t acc_lo = vdupq_n_s32(0);  // columns n .. n+3
    int32x4_t acc_hi = vdupq_n_s32(0);  // columns n+4 .. n+7
    for (int p = 0; p < pairs; ++p) {
      const std::int16_t a0 = std::int16_t(a[2 * p]);
      const std::int16_t a1 =
          (2 * p + 1 < k) ? std::int16_t(a[2 * p + 1]) : std::int16_t(0);
      const std::int8_t* row =
          b_packed + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const int8x8x2_t de = vld2_s8(row);
      const int16x8_t b0 = vmovl_s8(de.val[0]);  // k = 2p weights, 8 columns
      const int16x8_t b1 = vmovl_s8(de.val[1]);  // k = 2p+1 weights
      acc_lo = vmlal_n_s16(acc_lo, vget_low_s16(b0), a0);
      acc_lo = vmlal_n_s16(acc_lo, vget_low_s16(b1), a1);
      acc_hi = vmlal_n_s16(acc_hi, vget_high_s16(b0), a0);
      acc_hi = vmlal_n_s16(acc_hi, vget_high_s16(b1), a1);
    }
    vst1q_s32(out + n, acc_lo);
    vst1q_s32(out + n + 4, acc_hi);
  }
  for (; n < n_cols; ++n) {
    std::int32_t acc = 0;
    for (int p = 0; p < pairs; ++p) {
      const std::int32_t a0 = a[2 * p];
      const std::int32_t a1 = (2 * p + 1 < k) ? a[2 * p + 1] : 0;
      const std::int8_t* row = b_packed + std::ptrdiff_t(p) * n_cols * 2;
      acc += a0 * std::int32_t(row[2 * n]) +
             a1 * std::int32_t(row[2 * n + 1]);
    }
    out[n] = acc;
  }
}

// Two rows per B-panel pass (NEON's 32 vector registers would fit more, but
// two already halves the deinterleave/widen work per output pixel, which is
// the expensive part here). Integer lanes are exact, so the tiling cannot
// change the accumulators.
void GemmU8S8Row2Neon(const std::uint8_t* a, int lda,
                      const std::int8_t* b_packed, int k, int n_cols,
                      std::int32_t* out, int ldo) {
  const int pairs = (k + 1) / 2;
  const std::uint8_t* a0 = a;
  const std::uint8_t* a1 = a + lda;
  int n = 0;
  for (; n + 8 <= n_cols; n += 8) {
    int32x4_t acc0_lo = vdupq_n_s32(0), acc0_hi = vdupq_n_s32(0);
    int32x4_t acc1_lo = vdupq_n_s32(0), acc1_hi = vdupq_n_s32(0);
    for (int p = 0; p < pairs; ++p) {
      const int ok = 2 * p + 1 < k;
      const std::int16_t a0e = std::int16_t(a0[2 * p]);
      const std::int16_t a0o = ok ? std::int16_t(a0[2 * p + 1]) : 0;
      const std::int16_t a1e = std::int16_t(a1[2 * p]);
      const std::int16_t a1o = ok ? std::int16_t(a1[2 * p + 1]) : 0;
      const std::int8_t* row =
          b_packed + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const int8x8x2_t de = vld2_s8(row);
      const int16x8_t b0 = vmovl_s8(de.val[0]);
      const int16x8_t b1 = vmovl_s8(de.val[1]);
      acc0_lo = vmlal_n_s16(acc0_lo, vget_low_s16(b0), a0e);
      acc0_lo = vmlal_n_s16(acc0_lo, vget_low_s16(b1), a0o);
      acc0_hi = vmlal_n_s16(acc0_hi, vget_high_s16(b0), a0e);
      acc0_hi = vmlal_n_s16(acc0_hi, vget_high_s16(b1), a0o);
      acc1_lo = vmlal_n_s16(acc1_lo, vget_low_s16(b0), a1e);
      acc1_lo = vmlal_n_s16(acc1_lo, vget_low_s16(b1), a1o);
      acc1_hi = vmlal_n_s16(acc1_hi, vget_high_s16(b0), a1e);
      acc1_hi = vmlal_n_s16(acc1_hi, vget_high_s16(b1), a1o);
    }
    vst1q_s32(out + n, acc0_lo);
    vst1q_s32(out + n + 4, acc0_hi);
    vst1q_s32(out + ldo + n, acc1_lo);
    vst1q_s32(out + ldo + n + 4, acc1_hi);
  }
  for (; n < n_cols; ++n) {
    const std::uint8_t* rows[2] = {a0, a1};
    for (int r = 0; r < 2; ++r) {
      std::int32_t acc = 0;
      for (int p = 0; p < pairs; ++p) {
        const std::int32_t v0 = rows[r][2 * p];
        const std::int32_t v1 = (2 * p + 1 < k) ? rows[r][2 * p + 1] : 0;
        const std::int8_t* row = b_packed + std::ptrdiff_t(p) * n_cols * 2;
        acc += v0 * std::int32_t(row[2 * n]) +
               v1 * std::int32_t(row[2 * n + 1]);
      }
      out[std::ptrdiff_t(r) * ldo + n] = acc;
    }
  }
}

void GemmU8S8Neon(const std::uint8_t* a, int lda, int m,
                  const std::int8_t* b_packed, int k, int n_cols,
                  std::int32_t* out, int ldo) {
  int i = 0;
  for (; i + 2 <= m; i += 2) {
    GemmU8S8Row2Neon(a + std::ptrdiff_t(i) * lda, lda, b_packed, k, n_cols,
                     out + std::ptrdiff_t(i) * ldo, ldo);
  }
  for (; i < m; ++i) {
    GemmU8S8Row1Neon(a + std::ptrdiff_t(i) * lda, b_packed, k, n_cols,
                     out + std::ptrdiff_t(i) * ldo);
  }
}

// ---------------------------------------------------- activation quantizer --

// 16 codes per step: four 4-lane mul/add/truncating-convert rounds
// (vcvtq_s32_f32 truncates toward zero like the scalar cast), saturating
// narrows s32 -> s16 -> u8 — exactly the scalar clamp.
void QuantizeActU8Neon(const float* x, std::size_t len, float inv_scale,
                       float bias, std::uint8_t* out) {
  const float32x4_t vi = vdupq_n_f32(inv_scale);
  const float32x4_t vb = vdupq_n_f32(bias);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    // Separate mul/add (not vmla): the scalar reference rounds between the
    // multiply and the add, and vmla may lower to a fused fmla.
    const int32x4_t c0 =
        vcvtq_s32_f32(vaddq_f32(vmulq_f32(vld1q_f32(x + i), vi), vb));
    const int32x4_t c1 =
        vcvtq_s32_f32(vaddq_f32(vmulq_f32(vld1q_f32(x + i + 4), vi), vb));
    const int32x4_t c2 =
        vcvtq_s32_f32(vaddq_f32(vmulq_f32(vld1q_f32(x + i + 8), vi), vb));
    const int32x4_t c3 =
        vcvtq_s32_f32(vaddq_f32(vmulq_f32(vld1q_f32(x + i + 12), vi), vb));
    const int16x8_t p01 = vcombine_s16(vqmovn_s32(c0), vqmovn_s32(c1));
    const int16x8_t p23 = vcombine_s16(vqmovn_s32(c2), vqmovn_s32(c3));
    vst1q_u8(out + i, vcombine_u8(vqmovun_s16(p01), vqmovun_s16(p23)));
  }
  for (; i < len; ++i) {
    const std::int32_t code = std::int32_t(x[i] * inv_scale + bias);
    out[i] = std::uint8_t(code < 0 ? 0 : (code > 255 ? 255 : code));
  }
}

const KernelTable kNeonTable = {
    "neon",        SadRowNeon,      Sad16xHNeon,      SadBoundedNeon,
    Fdct8x8Neon,   Idct8x8Neon,     Quantize8x8Neon,  Dequantize8x8Neon,
    GemmU8S8Neon,  QuantizeActU8Neon, GemmF32Blocked,
};

}  // namespace

const KernelTable* NeonKernelTable() noexcept { return &kNeonTable; }

#else  // !SIEVE_HAVE_NEON

const KernelTable* NeonKernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
