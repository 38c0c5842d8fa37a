// SSE2 kernel table. Bit-exact with the scalar table by construction:
//
//  * SAD uses psadbw — an exact integer reduction.
//  * The DCT/IDCT vectorize across the 8 *outputs* of each butterfly-free
//    stage (4 lanes at a time) while each lane accumulates its inner sum in
//    the same sequential order as the scalar loops, using only IEEE-exact
//    _mm_mul_ps/_mm_add_ps (SSE2 has no FMA, and this TU is built with
//    -ffp-contract=off like the scalar one).
//  * Rounding replicates std::lround (half away from zero) via
//    truncate + exact-fraction compare: for |v| < 2^23 both v and trunc(v)
//    are exactly representable and their difference is exact, so the
//    |frac| >= 0.5 test reproduces lround on the true float value.
//  * The fp32 GEMM is the portable blocked loop (kernels_internal.h), which
//    the compiler vectorizes to SSE2 across output columns in this TU.
//
// Compiled only where SSE2 exists; elsewhere the accessor returns nullptr
// and the dispatcher falls back to scalar.
#include "common/simd/kernels_internal.h"

#if defined(__SSE2__) || defined(__x86_64__)
#define SIEVE_HAVE_SSE2 1
#include <emmintrin.h>
#else
#define SIEVE_HAVE_SSE2 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_SSE2

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint32_t HorizontalSad(__m128i sad) {
  // _mm_sad_epu8 leaves two 16-bit sums in the low words of each 64-bit lane.
  return std::uint32_t(_mm_cvtsi128_si32(sad)) +
         std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sad, 8)));
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  return HorizontalSad(_mm_sad_epu8(va, vb));
}

std::uint32_t SadRowSse2(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 16 <= w; x += 16) acc += SadRow16(a + x, b + x);
  if (x + 8 <= w) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + x));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + x));
    acc += std::uint32_t(_mm_cvtsi128_si32(_mm_sad_epu8(va, vb)));
    x += 8;
  }
  for (; x < w; ++x) {
    acc += std::uint32_t(a[x] < b[x] ? b[x] - a[x] : a[x] - b[x]);
  }
  return acc;
}

std::uint64_t Sad16xHSse2(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedSse2(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowSse2(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 4 lanes (half away from zero), exact for |v| < 2^23.
inline __m128i LroundPs(__m128 v) {
  const __m128i trunc = _mm_cvttps_epi32(v);
  const __m128 trunc_f = _mm_cvtepi32_ps(trunc);  // exact for |v| < 2^23
  const __m128 frac = _mm_sub_ps(v, trunc_f);     // exact (Sterbenz-range)
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 abs_frac = _mm_and_ps(frac, abs_mask);
  const __m128i round_up = _mm_and_si128(
      _mm_castps_si128(_mm_cmpge_ps(abs_frac, _mm_set1_ps(0.5f))),
      _mm_set1_epi32(1));
  const __m128i neg_mask =
      _mm_castps_si128(_mm_cmplt_ps(v, _mm_setzero_ps()));
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const __m128i adjust =
      _mm_sub_epi32(_mm_xor_si128(round_up, neg_mask), neg_mask);
  return _mm_add_epi32(trunc, adjust);
}

void Fdct8x8Sse2(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; lanes = k, scan order = x.
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int x = 0; x < kBlockDim; ++x) {
      const __m128 s = _mm_set1_ps(float(in[y * kBlockDim + x]));
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(s, _mm_load_ps(t.basis_t + x * kBlockDim)));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(s, _mm_load_ps(t.basis_t + x * kBlockDim + 4)));
    }
    _mm_store_ps(tmp + y * kBlockDim, acc_lo);
    _mm_store_ps(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int y = 0; y < kBlockDim; ++y) {
      const __m128 s = _mm_set1_ps(t.basis[v * kBlockDim + y]);
      acc_lo =
          _mm_add_ps(acc_lo, _mm_mul_ps(_mm_load_ps(tmp + y * kBlockDim), s));
      acc_hi = _mm_add_ps(acc_hi,
                          _mm_mul_ps(_mm_load_ps(tmp + y * kBlockDim + 4), s));
    }
    _mm_storeu_ps(out + v * kBlockDim, acc_lo);
    _mm_storeu_ps(out + v * kBlockDim + 4, acc_hi);
  }
}

void Idct8x8Sse2(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int v = 0; v < kBlockDim; ++v) {
      const __m128 s = _mm_set1_ps(t.basis[v * kBlockDim + y]);
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(_mm_loadu_ps(in + v * kBlockDim), s));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(_mm_loadu_ps(in + v * kBlockDim + 4), s));
    }
    _mm_store_ps(tmp + y * kBlockDim, acc_lo);
    _mm_store_ps(tmp + y * kBlockDim + 4, acc_hi);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const __m128 hi_clamp = _mm_set1_ps(32767.0f);
  const __m128 lo_clamp = _mm_set1_ps(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    __m128 acc_lo = _mm_setzero_ps();
    __m128 acc_hi = _mm_setzero_ps();
    for (int k = 0; k < kBlockDim; ++k) {
      const __m128 s = _mm_set1_ps(tmp[y * kBlockDim + k]);
      acc_lo = _mm_add_ps(acc_lo,
                          _mm_mul_ps(s, _mm_load_ps(t.basis + k * kBlockDim)));
      acc_hi = _mm_add_ps(
          acc_hi, _mm_mul_ps(s, _mm_load_ps(t.basis + k * kBlockDim + 4)));
    }
    // Clamp in float THEN lround: equivalent to scalar's lround-then-clamp
    // for every finite input (the clamp bounds are exactly representable),
    // and it keeps cvttps inside the exact int32 range.
    acc_lo = _mm_max_ps(_mm_min_ps(acc_lo, hi_clamp), lo_clamp);
    acc_hi = _mm_max_ps(_mm_min_ps(acc_hi, hi_clamp), lo_clamp);
    const __m128i packed = _mm_packs_epi32(LroundPs(acc_lo), LroundPs(acc_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * kBlockDim), packed);
  }
}

void Quantize8x8Sse2(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const __m128 v = _mm_div_ps(
        _mm_loadu_ps(dct + i),
        _mm_cvtepi32_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(step + i))));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), LroundPs(v));
  }
}

void Dequantize8x8Sse2(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 4) {
    const __m128 a = _mm_cvtepi32_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m128 b = _mm_cvtepi32_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(step + i)));
    _mm_storeu_ps(out + i, _mm_mul_ps(a, b));
  }
}

// -------------------------------------------------------------- int8 GEMM --

// 8 output columns per step over the packed-B pairs. The activation pair is
// broadcast as one i32 lane pair [a0, a1] (u8 values are exact in i16) and
// _mm_madd_epi16 computes a0*b[n][2p] + a1*b[n][2p+1] per i32 lane — exact:
// the products are at most 255 * 128, far from the i16 saturation edge that
// maddubs-style kernels hit. Sign-extension of the s8 weights uses the
// classic unpack-with-compare idiom (SSE2 has no cvtepi8).
void GemmU8S8Row1Sse2(const std::uint8_t* a, const std::int8_t* b_packed,
                      int k, int n_cols, std::int32_t* out) {
  const int pairs = (k + 1) / 2;
  const __m128i zero = _mm_setzero_si128();
  int n = 0;
  for (; n + 8 <= n_cols; n += 8) {
    __m128i acc_lo = _mm_setzero_si128();  // columns n .. n+3
    __m128i acc_hi = _mm_setzero_si128();  // columns n+4 .. n+7
    for (int p = 0; p < pairs; ++p) {
      const int a0 = a[2 * p];
      const int a1 = (2 * p + 1 < k) ? a[2 * p + 1] : 0;
      const __m128i av = _mm_set1_epi32(a0 | (a1 << 16));
      const std::int8_t* row =
          b_packed + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m128i b8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
      const __m128i sign = _mm_cmpgt_epi8(zero, b8);
      acc_lo = _mm_add_epi32(
          acc_lo, _mm_madd_epi16(av, _mm_unpacklo_epi8(b8, sign)));
      acc_hi = _mm_add_epi32(
          acc_hi, _mm_madd_epi16(av, _mm_unpackhi_epi8(b8, sign)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n), acc_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n + 4), acc_hi);
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

// Four rows per B-panel pass: the unpacked weight pair feeds four madds
// (one per row) so B streams through the core once per 4 output pixels —
// the panel-reuse tile that makes the int8 path beat fp32 on conv layers.
void GemmU8S8Row4Sse2(const std::uint8_t* a, int lda,
                      const std::int8_t* b_packed, int k, int n_cols,
                      std::int32_t* out, int ldo) {
  const int pairs = (k + 1) / 2;
  const __m128i zero = _mm_setzero_si128();
  const std::uint8_t* a0 = a;
  const std::uint8_t* a1 = a + lda;
  const std::uint8_t* a2 = a + 2 * std::ptrdiff_t(lda);
  const std::uint8_t* a3 = a + 3 * std::ptrdiff_t(lda);
  int n = 0;
  for (; n + 8 <= n_cols; n += 8) {
    __m128i acc0_lo = _mm_setzero_si128(), acc0_hi = _mm_setzero_si128();
    __m128i acc1_lo = _mm_setzero_si128(), acc1_hi = _mm_setzero_si128();
    __m128i acc2_lo = _mm_setzero_si128(), acc2_hi = _mm_setzero_si128();
    __m128i acc3_lo = _mm_setzero_si128(), acc3_hi = _mm_setzero_si128();
    for (int p = 0; p < pairs; ++p) {
      const int ok = 2 * p + 1 < k;
      const std::int8_t* row =
          b_packed + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m128i b8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
      const __m128i sign = _mm_cmpgt_epi8(zero, b8);
      const __m128i b_lo = _mm_unpacklo_epi8(b8, sign);
      const __m128i b_hi = _mm_unpackhi_epi8(b8, sign);
      const __m128i av0 =
          _mm_set1_epi32(a0[2 * p] | ((ok ? a0[2 * p + 1] : 0) << 16));
      const __m128i av1 =
          _mm_set1_epi32(a1[2 * p] | ((ok ? a1[2 * p + 1] : 0) << 16));
      const __m128i av2 =
          _mm_set1_epi32(a2[2 * p] | ((ok ? a2[2 * p + 1] : 0) << 16));
      const __m128i av3 =
          _mm_set1_epi32(a3[2 * p] | ((ok ? a3[2 * p + 1] : 0) << 16));
      acc0_lo = _mm_add_epi32(acc0_lo, _mm_madd_epi16(av0, b_lo));
      acc0_hi = _mm_add_epi32(acc0_hi, _mm_madd_epi16(av0, b_hi));
      acc1_lo = _mm_add_epi32(acc1_lo, _mm_madd_epi16(av1, b_lo));
      acc1_hi = _mm_add_epi32(acc1_hi, _mm_madd_epi16(av1, b_hi));
      acc2_lo = _mm_add_epi32(acc2_lo, _mm_madd_epi16(av2, b_lo));
      acc2_hi = _mm_add_epi32(acc2_hi, _mm_madd_epi16(av2, b_hi));
      acc3_lo = _mm_add_epi32(acc3_lo, _mm_madd_epi16(av3, b_lo));
      acc3_hi = _mm_add_epi32(acc3_hi, _mm_madd_epi16(av3, b_hi));
    }
    std::int32_t* o = out + n;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o), acc0_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 4), acc0_hi);
    o += ldo;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o), acc1_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 4), acc1_hi);
    o += ldo;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o), acc2_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 4), acc2_hi);
    o += ldo;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o), acc3_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 4), acc3_hi);
  }
  for (; n < n_cols; ++n) {
    const std::uint8_t* rows[4] = {a0, a1, a2, a3};
    for (int r = 0; r < 4; ++r) {
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

void GemmU8S8Sse2(const std::uint8_t* a, int lda, int m,
                  const std::int8_t* b_packed, int k, int n_cols,
                  std::int32_t* out, int ldo) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    GemmU8S8Row4Sse2(a + std::ptrdiff_t(i) * lda, lda, b_packed, k, n_cols,
                     out + std::ptrdiff_t(i) * ldo, ldo);
  }
  for (; i < m; ++i) {
    GemmU8S8Row1Sse2(a + std::ptrdiff_t(i) * lda, b_packed, k, n_cols,
                     out + std::ptrdiff_t(i) * ldo);
  }
}

// ---------------------------------------------------- activation quantizer --

// 16 codes per step: four 4-lane mul/add/cvtt rounds, i32 -> i16 saturating
// packs, then the i16 -> u8 unsigned-saturating pack (exactly the scalar
// clamp, including the INT_MIN sentinel cvtt leaves for out-of-range
// values).
void QuantizeActU8Sse2(const float* x, std::size_t len, float inv_scale,
                       float bias, std::uint8_t* out) {
  const __m128 vi = _mm_set1_ps(inv_scale);
  const __m128 vb = _mm_set1_ps(bias);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i c0 =
        _mm_cvttps_epi32(_mm_add_ps(_mm_mul_ps(_mm_loadu_ps(x + i), vi), vb));
    const __m128i c1 = _mm_cvttps_epi32(
        _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(x + i + 4), vi), vb));
    const __m128i c2 = _mm_cvttps_epi32(
        _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(x + i + 8), vi), vb));
    const __m128i c3 = _mm_cvttps_epi32(
        _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(x + i + 12), vi), vb));
    const __m128i b8 = _mm_packus_epi16(_mm_packs_epi32(c0, c1),
                                        _mm_packs_epi32(c2, c3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), b8);
  }
  for (; i < len; ++i) {
    const std::int32_t code = std::int32_t(x[i] * inv_scale + bias);
    out[i] = std::uint8_t(code < 0 ? 0 : (code > 255 ? 255 : code));
  }
}

const KernelTable kSse2Table = {
    "sse2",        SadRowSse2,      Sad16xHSse2,      SadBoundedSse2,
    Fdct8x8Sse2,   Idct8x8Sse2,     Quantize8x8Sse2,  Dequantize8x8Sse2,
    GemmU8S8Sse2,  QuantizeActU8Sse2, GemmF32Blocked,
};

}  // namespace

const KernelTable* Sse2KernelTable() noexcept { return &kSse2Table; }

#else  // !SIEVE_HAVE_SSE2

const KernelTable* Sse2KernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
