// AVX2 kernel table, bit-exact with the scalar reference by construction:
//
//  * SAD uses vpsadbw (_mm256_sad_epu8) — an exact integer reduction — over
//    32-byte spans, then 16-byte, 8-byte and scalar tail steps.
//  * The DCT/IDCT vectorize across all 8 *outputs* of each stage in a single
//    ymm accumulator while each lane accumulates its inner sum in the same
//    sequential order as the scalar loops, using only IEEE-exact
//    _mm256_mul_ps/_mm256_add_ps (no FMA — this TU is built with
//    -ffp-contract=off like the others, and none is written by hand).
//  * Rounding replicates std::lround (half away from zero) via truncate +
//    exact-fraction compare: for |v| < 2^23 both v and trunc(v) are exactly
//    representable and their difference is exact, so the |frac| >= 0.5 test
//    reproduces lround on the true float value.
//  * The int8 GEMM widens u8/s8 operands to i16 and uses _mm256_madd_epi16
//    (exact for these magnitudes) — never the saturating vpmaddubsw.
//  * The fp32 GEMM is a 6x16 register tile that vectorizes across output
//    columns and keeps each element's k-ascending mul-then-add order.
//  * The analysis-pass kernels are integer-only: block texture widens to
//    int16 (every term fits) and reduces with vpmaddwd, the deadzone SAD is
//    two saturating byte subtracts (exact for a deadzone in [0, 255]) under
//    vpsadbw, and the 2x decimation sums pixel pairs with vpmaddubsw
//    (pair sums <= 510 never saturate) before the rounding shift.
//
// The TU is compiled with -mavx2 on x86 (see CMakeLists.txt); dispatch is
// CPUID-verified so the kernels never execute on a core without AVX2.
// Elsewhere the accessor returns nullptr and the dispatcher falls back to
// the scalar table.
#include "common/simd/kernels_internal.h"

#include <cstring>

#if defined(__AVX2__)
#define SIEVE_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SIEVE_HAVE_AVX2 0
#endif

namespace sieve::simd {

#if SIEVE_HAVE_AVX2

namespace {

// -------------------------------------------------------------------- SAD --

inline std::uint64_t HorizontalSad64(__m256i sad) {
  // _mm256_sad_epu8 leaves four 16-bit sums in the low words of each 64-bit
  // lane; fold the two 128-bit halves, then the two 64-bit halves.
  const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(sad),
                                    _mm256_extracti128_si256(sad, 1));
  return std::uint64_t(std::uint32_t(_mm_cvtsi128_si32(sum))) +
         std::uint64_t(std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sum, 8))));
}

inline std::uint32_t SadRow32(const std::uint8_t* a, const std::uint8_t* b) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return std::uint32_t(HorizontalSad64(_mm256_sad_epu8(va, vb)));
}

inline std::uint32_t SadRow16(const std::uint8_t* a, const std::uint8_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m128i sad = _mm_sad_epu8(va, vb);
  return std::uint32_t(_mm_cvtsi128_si32(sad)) +
         std::uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(sad, 8)));
}

std::uint32_t SadRowAvx2(const std::uint8_t* a, const std::uint8_t* b, int w) {
  std::uint32_t acc = 0;
  int x = 0;
  for (; x + 32 <= w; x += 32) acc += SadRow32(a + x, b + x);
  if (x + 16 <= w) {
    acc += SadRow16(a + x, b + x);
    x += 16;
  }
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

std::uint64_t Sad16xHAvx2(const std::uint8_t* a, int a_stride,
                          const std::uint8_t* b, int b_stride, int h) {
  // Two 16-byte rows per vpsadbw. Integer SAD is exact under any grouping,
  // so pairing rows changes nothing observable.
  __m256i vacc = _mm256_setzero_si256();
  int y = 0;
  for (; y + 2 <= h; y += 2) {
    const std::uint8_t* a0 = a + std::ptrdiff_t(y) * a_stride;
    const std::uint8_t* b0 = b + std::ptrdiff_t(y) * b_stride;
    const __m256i va = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a0 + a_stride)), 1);
    const __m256i vb = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + b_stride)), 1);
    vacc = _mm256_add_epi64(vacc, _mm256_sad_epu8(va, vb));
  }
  std::uint64_t acc = HorizontalSad64(vacc);
  if (y < h) {
    acc += SadRow16(a + std::ptrdiff_t(y) * a_stride,
                    b + std::ptrdiff_t(y) * b_stride);
  }
  return acc;
}

std::uint64_t SadBoundedAvx2(const std::uint8_t* a, int a_stride,
                             const std::uint8_t* b, int b_stride, int w, int h,
                             std::uint64_t bound) {
  std::uint64_t acc = 0;
  for (int y = 0; y < h; ++y) {
    acc += SadRowAvx2(a + std::ptrdiff_t(y) * a_stride,
                      b + std::ptrdiff_t(y) * b_stride, w);
    if (acc >= bound) return acc;
  }
  return acc;
}

// ------------------------------------------------------------- transforms --

/// std::lround on 8 lanes (half away from zero), exact for |v| < 2^23.
inline __m256i LroundPs(__m256 v) {
  const __m256i trunc = _mm256_cvttps_epi32(v);
  const __m256 trunc_f = _mm256_cvtepi32_ps(trunc);  // exact for |v| < 2^23
  const __m256 frac = _mm256_sub_ps(v, trunc_f);     // exact (Sterbenz-range)
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 abs_frac = _mm256_and_ps(frac, abs_mask);
  const __m256i round_up = _mm256_and_si256(
      _mm256_castps_si256(
          _mm256_cmp_ps(abs_frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ)),
      _mm256_set1_epi32(1));
  const __m256i neg_mask = _mm256_castps_si256(
      _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ));
  // +1 where rounding away and v >= 0, -1 where rounding away and v < 0.
  const __m256i adjust =
      _mm256_sub_epi32(_mm256_xor_si256(round_up, neg_mask), neg_mask);
  return _mm256_add_epi32(trunc, adjust);
}

void Fdct8x8Avx2(const std::int16_t* in, float* out) {
  const DctTables& t = Tables();
  alignas(32) float tmp[kBlockLen];
  // Rows: tmp[y][k] = sum_x in[y][x] * C[k][x]; all 8 k-lanes in one ymm,
  // scan order = x (identical per-lane accumulation order to scalar).
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int x = 0; x < kBlockDim; ++x) {
      const __m256 s = _mm256_set1_ps(float(in[y * kBlockDim + x]));
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(s, _mm256_loadu_ps(t.basis_t + x * kBlockDim)));
    }
    _mm256_store_ps(tmp + y * kBlockDim, acc);
  }
  // Columns: out[v][k] = sum_y tmp[y][k] * C[v][y]; lanes = k, order = y.
  for (int v = 0; v < kBlockDim; ++v) {
    __m256 acc = _mm256_setzero_ps();
    for (int y = 0; y < kBlockDim; ++y) {
      const __m256 s = _mm256_set1_ps(t.basis[v * kBlockDim + y]);
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_load_ps(tmp + y * kBlockDim), s));
    }
    _mm256_storeu_ps(out + v * kBlockDim, acc);
  }
}

void Idct8x8Avx2(const float* in, std::int16_t* out) {
  const DctTables& t = Tables();
  alignas(32) float tmp[kBlockLen];
  // Columns first: tmp[y][k] = sum_v in[v][k] * C[v][y]; lanes = k.
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int v = 0; v < kBlockDim; ++v) {
      const __m256 s = _mm256_set1_ps(t.basis[v * kBlockDim + y]);
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(_mm256_loadu_ps(in + v * kBlockDim), s));
    }
    _mm256_store_ps(tmp + y * kBlockDim, acc);
  }
  // Rows: out[y][x] = round(sum_k tmp[y][k] * C[k][x]); lanes = x.
  const __m256 hi_clamp = _mm256_set1_ps(32767.0f);
  const __m256 lo_clamp = _mm256_set1_ps(-32768.0f);
  for (int y = 0; y < kBlockDim; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = 0; k < kBlockDim; ++k) {
      const __m256 s = _mm256_set1_ps(tmp[y * kBlockDim + k]);
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(s, _mm256_loadu_ps(t.basis + k * kBlockDim)));
    }
    // Clamp in float THEN lround: equivalent to scalar's lround-then-clamp
    // for every finite input (the clamp bounds are exactly representable),
    // and it keeps cvttps inside the exact int32 range.
    acc = _mm256_max_ps(_mm256_min_ps(acc, hi_clamp), lo_clamp);
    const __m256i r = LroundPs(acc);
    const __m128i packed = _mm_packs_epi32(_mm256_castsi256_si128(r),
                                           _mm256_extracti128_si256(r, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + y * kBlockDim), packed);
  }
}

void Quantize8x8Avx2(const float* dct, const std::int32_t* step,
                     std::int32_t* out) {
  for (int i = 0; i < kBlockLen; i += 8) {
    const __m256 v = _mm256_div_ps(
        _mm256_loadu_ps(dct + i),
        _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(step + i))));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), LroundPs(v));
  }
}

void Dequantize8x8Avx2(const std::int32_t* in, const std::int32_t* step,
                       float* out) {
  for (int i = 0; i < kBlockLen; i += 8) {
    const __m256 a = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i)));
    const __m256 b = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(step + i)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(a, b));
  }
}

// -------------------------------------------------------------- int8 GEMM --

// The inner product walks packed-B pairs with _mm256_madd_epi16:
// a0*b[n][2p] + a1*b[n][2p+1] per i32 lane, exactly (products are at most
// 255 * 128 — nowhere near i16 saturation). The activation pair for each
// row is pre-widened to adjacent i16s so the broadcast is one vpbroadcastd
// from memory instead of a byte-assembled immediate — with four rows per
// B-panel pass that broadcast was the hot loop's dominant cost.

// Pairs per widened-A stack chunk; k longer than 2 * kChunkPairs is
// processed in chunks with the partial products accumulated through `out`
// (exact: integer adds in any grouping).
constexpr int kChunkPairs = 1024;

// Widens `pc` pairs of row `arow` starting at pair p0 into i16s,
// zero-padding past the end of the row (the odd-k tail).
inline void WidenRowAvx2(const std::uint8_t* arow, int p0, int pc, int k,
                         std::int16_t* aw) {
  const int base = 2 * p0;
  const int avail = k - base < 2 * pc ? k - base : 2 * pc;
  int j = 0;
  for (; j + 16 <= avail; j += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + base + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(aw + j),
                        _mm256_cvtepu8_epi16(v));
  }
  for (; j < avail; ++j) aw[j] = arow[base + j];
  for (; j < 2 * pc; ++j) aw[j] = 0;
}

// One vpbroadcastd of the widened pair p: a0 in the low i16 of every i32
// lane, a1 in the high.
inline __m256i BcastPairAvx2(const std::int16_t* aw, int p) {
  std::int32_t v;
  std::memcpy(&v, aw + 2 * p, sizeof(v));
  return _mm256_set1_epi32(v);
}

// One row x one packed-B chunk of `pc` pairs. `first` selects store vs
// accumulate into `out`.
void GemmU8S8Row1ChunkAvx2(const std::int16_t* aw, int pc,
                           const std::int8_t* b_chunk, int n_cols,
                           std::int32_t* out, bool first) {
  int n = 0;
  for (; n + 16 <= n_cols; n += 16) {
    __m256i acc_lo = _mm256_setzero_si256();  // columns n .. n+7
    __m256i acc_hi = _mm256_setzero_si256();  // columns n+8 .. n+15
    for (int p = 0; p < pc; ++p) {
      const __m256i av = BcastPairAvx2(aw, p);
      const std::int8_t* row =
          b_chunk + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m128i b8_lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
      const __m128i b8_hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(b8_lo)));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(b8_hi)));
    }
    __m256i* o_lo = reinterpret_cast<__m256i*>(out + n);
    __m256i* o_hi = reinterpret_cast<__m256i*>(out + n + 8);
    if (!first) {
      acc_lo = _mm256_add_epi32(acc_lo, _mm256_loadu_si256(o_lo));
      acc_hi = _mm256_add_epi32(acc_hi, _mm256_loadu_si256(o_hi));
    }
    _mm256_storeu_si256(o_lo, acc_lo);
    _mm256_storeu_si256(o_hi, acc_hi);
  }
  for (; n + 8 <= n_cols; n += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (int p = 0; p < pc; ++p) {
      const __m256i av = BcastPairAvx2(aw, p);
      const std::int8_t* row =
          b_chunk + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m128i b8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
      acc = _mm256_add_epi32(acc,
                             _mm256_madd_epi16(av, _mm256_cvtepi8_epi16(b8)));
    }
    __m256i* o = reinterpret_cast<__m256i*>(out + n);
    if (!first) acc = _mm256_add_epi32(acc, _mm256_loadu_si256(o));
    _mm256_storeu_si256(o, acc);
  }
  for (; n < n_cols; ++n) {
    std::int32_t acc = first ? 0 : out[n];
    for (int p = 0; p < pc; ++p) {
      const std::int8_t* row = b_chunk + std::ptrdiff_t(p) * n_cols * 2;
      acc += std::int32_t(aw[2 * p]) * std::int32_t(row[2 * n]) +
             std::int32_t(aw[2 * p + 1]) * std::int32_t(row[2 * n + 1]);
    }
    out[n] = acc;
  }
}

// Four rows per B-panel pass: each sign-extended weight vector feeds four
// madds (one per row), so B streams through the core once per 4 output
// pixels instead of once per pixel — the panel-reuse tile that makes the
// int8 path beat fp32 on conv layers.
void GemmU8S8Row4ChunkAvx2(const std::int16_t* const aw[4], int pc,
                           const std::int8_t* b_chunk, int n_cols,
                           std::int32_t* out, int ldo, bool first) {
  int n = 0;
  for (; n + 16 <= n_cols; n += 16) {
    __m256i acc0_lo = _mm256_setzero_si256(), acc0_hi = _mm256_setzero_si256();
    __m256i acc1_lo = _mm256_setzero_si256(), acc1_hi = _mm256_setzero_si256();
    __m256i acc2_lo = _mm256_setzero_si256(), acc2_hi = _mm256_setzero_si256();
    __m256i acc3_lo = _mm256_setzero_si256(), acc3_hi = _mm256_setzero_si256();
    for (int p = 0; p < pc; ++p) {
      const std::int8_t* row =
          b_chunk + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m256i b_lo = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
      const __m256i b_hi = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + 16)));
      const __m256i av0 = BcastPairAvx2(aw[0], p);
      const __m256i av1 = BcastPairAvx2(aw[1], p);
      const __m256i av2 = BcastPairAvx2(aw[2], p);
      const __m256i av3 = BcastPairAvx2(aw[3], p);
      acc0_lo = _mm256_add_epi32(acc0_lo, _mm256_madd_epi16(av0, b_lo));
      acc0_hi = _mm256_add_epi32(acc0_hi, _mm256_madd_epi16(av0, b_hi));
      acc1_lo = _mm256_add_epi32(acc1_lo, _mm256_madd_epi16(av1, b_lo));
      acc1_hi = _mm256_add_epi32(acc1_hi, _mm256_madd_epi16(av1, b_hi));
      acc2_lo = _mm256_add_epi32(acc2_lo, _mm256_madd_epi16(av2, b_lo));
      acc2_hi = _mm256_add_epi32(acc2_hi, _mm256_madd_epi16(av2, b_hi));
      acc3_lo = _mm256_add_epi32(acc3_lo, _mm256_madd_epi16(av3, b_lo));
      acc3_hi = _mm256_add_epi32(acc3_hi, _mm256_madd_epi16(av3, b_hi));
    }
    __m256i accs[4][2] = {{acc0_lo, acc0_hi},
                          {acc1_lo, acc1_hi},
                          {acc2_lo, acc2_hi},
                          {acc3_lo, acc3_hi}};
    for (int r = 0; r < 4; ++r) {
      std::int32_t* o = out + std::ptrdiff_t(r) * ldo + n;
      __m256i lo = accs[r][0], hi = accs[r][1];
      if (!first) {
        lo = _mm256_add_epi32(
            lo, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o)));
        hi = _mm256_add_epi32(
            hi, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o + 8)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o), lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 8), hi);
    }
  }
  for (; n + 8 <= n_cols; n += 8) {
    __m256i accs[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                       _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int p = 0; p < pc; ++p) {
      const std::int8_t* row =
          b_chunk + std::ptrdiff_t(p) * n_cols * 2 + std::ptrdiff_t(n) * 2;
      const __m256i b = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row)));
      for (int r = 0; r < 4; ++r) {
        accs[r] = _mm256_add_epi32(
            accs[r], _mm256_madd_epi16(BcastPairAvx2(aw[r], p), b));
      }
    }
    for (int r = 0; r < 4; ++r) {
      std::int32_t* o = out + std::ptrdiff_t(r) * ldo + n;
      __m256i acc = accs[r];
      if (!first) {
        acc = _mm256_add_epi32(
            acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o), acc);
    }
  }
  for (; n < n_cols; ++n) {
    for (int r = 0; r < 4; ++r) {
      std::int32_t acc = first ? 0 : out[std::ptrdiff_t(r) * ldo + n];
      for (int p = 0; p < pc; ++p) {
        const std::int8_t* row = b_chunk + std::ptrdiff_t(p) * n_cols * 2;
        acc += std::int32_t(aw[r][2 * p]) * std::int32_t(row[2 * n]) +
               std::int32_t(aw[r][2 * p + 1]) * std::int32_t(row[2 * n + 1]);
      }
      out[std::ptrdiff_t(r) * ldo + n] = acc;
    }
  }
}

void GemmU8S8Avx2(const std::uint8_t* a, int lda, int m,
                  const std::int8_t* b_packed, int k, int n_cols,
                  std::int32_t* out, int ldo) {
  const int pairs = (k + 1) / 2;
  alignas(32) std::int16_t aw0[2 * kChunkPairs];
  alignas(32) std::int16_t aw1[2 * kChunkPairs];
  alignas(32) std::int16_t aw2[2 * kChunkPairs];
  alignas(32) std::int16_t aw3[2 * kChunkPairs];
  const std::int16_t* const aw[4] = {aw0, aw1, aw2, aw3};
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const std::uint8_t* arow = a + std::ptrdiff_t(i) * lda;
    for (int p0 = 0; p0 < pairs; p0 += kChunkPairs) {
      const int pc = pairs - p0 < kChunkPairs ? pairs - p0 : kChunkPairs;
      WidenRowAvx2(arow, p0, pc, k, aw0);
      WidenRowAvx2(arow + lda, p0, pc, k, aw1);
      WidenRowAvx2(arow + 2 * std::ptrdiff_t(lda), p0, pc, k, aw2);
      WidenRowAvx2(arow + 3 * std::ptrdiff_t(lda), p0, pc, k, aw3);
      GemmU8S8Row4ChunkAvx2(aw, pc,
                            b_packed + std::ptrdiff_t(p0) * n_cols * 2,
                            n_cols, out + std::ptrdiff_t(i) * ldo, ldo,
                            p0 == 0);
    }
  }
  for (; i < m; ++i) {
    const std::uint8_t* arow = a + std::ptrdiff_t(i) * lda;
    for (int p0 = 0; p0 < pairs; p0 += kChunkPairs) {
      const int pc = pairs - p0 < kChunkPairs ? pairs - p0 : kChunkPairs;
      WidenRowAvx2(arow, p0, pc, k, aw0);
      GemmU8S8Row1ChunkAvx2(aw0, pc,
                            b_packed + std::ptrdiff_t(p0) * n_cols * 2,
                            n_cols, out + std::ptrdiff_t(i) * ldo, p0 == 0);
    }
  }
}

// --------------------------------------------------- activation quantizer --

// 32 codes per step: four 8-lane mul/add/cvtt rounds, i32 -> i16 saturating
// packs, i16 -> u8 unsigned-saturating pack (exactly the scalar clamp), and
// a cross-lane permute to undo the 128-bit-lane interleave of the packs.
void QuantizeActU8Avx2(const float* x, std::size_t len, float inv_scale,
                       float bias, std::uint8_t* out) {
  const __m256 vi = _mm256_set1_ps(inv_scale);
  const __m256 vb = _mm256_set1_ps(bias);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i c0 = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vi), vb));
    const __m256i c1 = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i + 8), vi), vb));
    const __m256i c2 = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i + 16), vi), vb));
    const __m256i c3 = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i + 24), vi), vb));
    const __m256i p01 = _mm256_packs_epi32(c0, c1);
    const __m256i p23 = _mm256_packs_epi32(c2, c3);
    const __m256i b8 = _mm256_permutevar8x32_epi32(
        _mm256_packus_epi16(p01, p23), order);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), b8);
  }
  for (; i < len; ++i) {
    const std::int32_t code = std::int32_t(x[i] * inv_scale + bias);
    out[i] = std::uint8_t(code < 0 ? 0 : (code > 255 ? 255 : code));
  }
}

// -------------------------------------------------------------- fp32 GEMM --

// The register-tiled microkernel (Goto & van de Geijn, "Anatomy of
// High-Performance Matrix Multiplication", TOMS 2008): a 6 x 16 tile of c
// lives in twelve ymm accumulators for the whole k loop. Each k step loads
// two 8-float vectors of one b row, broadcasts one a element per tile row,
// and issues a separate _mm256_mul_ps + _mm256_add_ps per accumulator —
// never fmadd — so every lane is the scalar reference's k-ascending sum
// from +0.0f. Column tails run the same tile on masked loads/stores (masked
// lanes are never stored); row tails instantiate it with fewer rows. The
// 16-column b panel (k x 64 bytes) stays cache-resident across the row
// sweep.

constexpr int kGemmMr = 6;
constexpr int kGemmNr = 16;

/// All-ones in lanes [0, lanes), clamped to [0, 8] lanes.
inline __m256i LaneMask(int lanes) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <int kRows, bool kFull>
inline void GemmF32TileAvx2(const float* a, const float* b, float* c, int k,
                            int n, __m256i mask0, __m256i mask1) {
  __m256 acc0[kRows];
  __m256 acc1[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + std::ptrdiff_t(p) * n;
    __m256 b0, b1;
    if constexpr (kFull) {
      b0 = _mm256_loadu_ps(brow);
      b1 = _mm256_loadu_ps(brow + 8);
    } else {
      b0 = _mm256_maskload_ps(brow, mask0);
      b1 = _mm256_maskload_ps(brow + 8, mask1);
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + std::ptrdiff_t(r) * k + p);
      acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
      acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* crow = c + std::ptrdiff_t(r) * n;
    if constexpr (kFull) {
      _mm256_storeu_ps(crow, acc0[r]);
      _mm256_storeu_ps(crow + 8, acc1[r]);
    } else {
      _mm256_maskstore_ps(crow, mask0, acc0[r]);
      _mm256_maskstore_ps(crow + 8, mask1, acc1[r]);
    }
  }
}

template <int kRows>
inline void GemmF32RowsAvx2(const float* a, const float* b, float* c, int k,
                            int n, int cols) {
  if (cols == kGemmNr) {
    const __m256i all = _mm256_set1_epi32(-1);
    GemmF32TileAvx2<kRows, true>(a, b, c, k, n, all, all);
  } else {
    GemmF32TileAvx2<kRows, false>(a, b, c, k, n, LaneMask(cols),
                                  LaneMask(cols - 8));
  }
}

void GemmF32Avx2(const float* a, const float* b, float* c, int m, int k,
                 int n) {
  for (int jj = 0; jj < n; jj += kGemmNr) {
    const int cols = n - jj < kGemmNr ? n - jj : kGemmNr;
    int ii = 0;
    for (; ii + kGemmMr <= m; ii += kGemmMr) {
      GemmF32RowsAvx2<kGemmMr>(a + std::ptrdiff_t(ii) * k, b + jj,
                               c + std::ptrdiff_t(ii) * n + jj, k, n, cols);
    }
    const float* at = a + std::ptrdiff_t(ii) * k;
    float* ct = c + std::ptrdiff_t(ii) * n + jj;
    switch (m - ii) {
      case 5: GemmF32RowsAvx2<5>(at, b + jj, ct, k, n, cols); break;
      case 4: GemmF32RowsAvx2<4>(at, b + jj, ct, k, n, cols); break;
      case 3: GemmF32RowsAvx2<3>(at, b + jj, ct, k, n, cols); break;
      case 2: GemmF32RowsAvx2<2>(at, b + jj, ct, k, n, cols); break;
      case 1: GemmF32RowsAvx2<1>(at, b + jj, ct, k, n, cols); break;
      default: break;
    }
  }
}

// ---------------------------------------------------------- analysis pass --

/// Four 8-pixel rows of a block in one ymm (row r in 64-bit lane r).
inline __m128i Load2Rows8(const std::uint8_t* p, std::ptrdiff_t stride) {
  return _mm_unpacklo_epi64(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + stride)));
}

inline __m256i Load4Rows8(const std::uint8_t* p, int stride) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(Load2Rows8(p, stride)),
      Load2Rows8(p + 2 * std::ptrdiff_t(stride), stride), 1);
}

inline std::uint32_t HorizontalSum32(__m256i v) {
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
  sum = _mm_add_epi32(sum, _mm_srli_si128(sum, 8));
  sum = _mm_add_epi32(sum, _mm_srli_si128(sum, 4));
  return std::uint32_t(_mm_cvtsi128_si32(sum));
}

/// |64 * x - s| summed pairwise into int32 lanes, for the 16 pixels of one
/// 128-bit half. Every term fits int16: 64 * 255 and s are both <= 16320.
inline __m256i IntraDevHalf(__m128i pixels, __m256i s) {
  const __m256i scaled = _mm256_slli_epi16(_mm256_cvtepu8_epi16(pixels), 6);
  return _mm256_madd_epi16(_mm256_abs_epi16(_mm256_sub_epi16(scaled, s)),
                           _mm256_set1_epi16(1));
}

std::uint32_t IntraDev8x8Avx2(const std::uint8_t* p, int stride) {
  const __m256i top = Load4Rows8(p, stride);
  const __m256i bottom = Load4Rows8(p + std::ptrdiff_t(4) * stride, stride);
  const __m256i zero = _mm256_setzero_si256();
  const std::uint64_t sum = HorizontalSad64(
      _mm256_add_epi64(_mm256_sad_epu8(top, zero), _mm256_sad_epu8(bottom, zero)));
  const __m256i s = _mm256_set1_epi16(std::int16_t(sum));
  __m256i acc = IntraDevHalf(_mm256_castsi256_si128(top), s);
  acc = _mm256_add_epi32(acc, IntraDevHalf(_mm256_extracti128_si256(top, 1), s));
  acc = _mm256_add_epi32(acc, IntraDevHalf(_mm256_castsi256_si128(bottom), s));
  acc = _mm256_add_epi32(acc,
                         IntraDevHalf(_mm256_extracti128_si256(bottom, 1), s));
  return HorizontalSum32(acc);
}

/// max(|a - b| - dz, 0) per byte: saturating subtracts are exact here.
inline __m256i DeadzoneAbsDiff(__m256i a, __m256i b, __m256i dz) {
  const __m256i diff =
      _mm256_or_si256(_mm256_subs_epu8(a, b), _mm256_subs_epu8(b, a));
  return _mm256_subs_epu8(diff, dz);
}

std::uint32_t DeadzoneSad8x8Avx2(const std::uint8_t* a, int a_stride,
                                 const std::uint8_t* b, int b_stride,
                                 int deadzone) {
  const __m256i dz = _mm256_set1_epi8(char(std::uint8_t(deadzone)));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i top = DeadzoneAbsDiff(Load4Rows8(a, a_stride),
                                      Load4Rows8(b, b_stride), dz);
  const __m256i bottom =
      DeadzoneAbsDiff(Load4Rows8(a + std::ptrdiff_t(4) * a_stride, a_stride),
                      Load4Rows8(b + std::ptrdiff_t(4) * b_stride, b_stride), dz);
  return std::uint32_t(HorizontalSad64(
      _mm256_add_epi64(_mm256_sad_epu8(top, zero), _mm256_sad_epu8(bottom, zero))));
}

/// (pair sums of 32 bytes of r0 + those of r1 + 2) >> 2: 16 rounded quad
/// averages in int16 lanes (pair sums <= 510, so vpmaddubsw never saturates).
inline __m256i QuadAverages(const std::uint8_t* r0, const std::uint8_t* r1) {
  const __m256i ones = _mm256_set1_epi8(1);
  const __m256i sum = _mm256_add_epi16(
      _mm256_maddubs_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0)), ones),
      _mm256_maddubs_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1)), ones));
  return _mm256_srli_epi16(_mm256_add_epi16(sum, _mm256_set1_epi16(2)), 2);
}

void Downsample2xRowAvx2(const std::uint8_t* r0, const std::uint8_t* r1,
                         std::uint8_t* out, int w) {
  int x = 0;
  for (; x + 32 <= w; x += 32) {
    // packus interleaves 128-bit lanes; the permute puts them back in order.
    const __m256i packed =
        _mm256_packus_epi16(QuadAverages(r0 + 2 * x, r1 + 2 * x),
                            QuadAverages(r0 + 2 * x + 32, r1 + 2 * x + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + x),
                        _mm256_permute4x64_epi64(packed, 0xd8));
  }
  if (x + 16 <= w) {
    const __m256i avg = QuadAverages(r0 + 2 * x, r1 + 2 * x);
    const __m256i packed =
        _mm256_permute4x64_epi64(_mm256_packus_epi16(avg, avg), 0xd8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm256_castsi256_si128(packed));
    x += 16;
  }
  for (; x < w; ++x) {
    const unsigned sum =
        unsigned(r0[2 * x]) + r0[2 * x + 1] + r1[2 * x] + r1[2 * x + 1];
    out[x] = static_cast<std::uint8_t>((sum + 2) / 4);
  }
}

const KernelTable kAvx2Table = {
    "avx2",        SadRowAvx2,      Sad16xHAvx2,      SadBoundedAvx2,
    Fdct8x8Avx2,   Idct8x8Avx2,     Quantize8x8Avx2,  Dequantize8x8Avx2,
    GemmU8S8Avx2,  QuantizeActU8Avx2, GemmF32Avx2,    IntraDev8x8Avx2,
    DeadzoneSad8x8Avx2, Downsample2xRowAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() noexcept { return &kAvx2Table; }

#else  // !SIEVE_HAVE_AVX2

const KernelTable* Avx2KernelTable() noexcept { return nullptr; }

#endif

}  // namespace sieve::simd
