// Internal sharing between the kernel-layer translation units: the DCT basis
// tables every architecture reads, the portable blocked fp32 GEMM, and the
// per-arch table accessors the dispatcher resolves (stubs return nullptr
// when the ISA is not compiled in).
// Not part of the public surface — include common/simd/kernels.h instead.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd/kernels.h"

namespace sieve::simd {

/// Orthonormal DCT-II basis C[k][n] = s(k) * cos((2n+1)kπ/16), in the two
/// layouts the kernels consume. Both are the exact float values the original
/// scalar transform computed, so the scalar kernel is bit-compatible with
/// the pre-dispatch code.
struct DctTables {
  alignas(16) float basis[kBlockLen];    ///< basis[k*8 + n]   = C[k][n]
  alignas(16) float basis_t[kBlockLen];  ///< basis_t[n*8 + k] = C[k][n]
  DctTables();
};

const DctTables& Tables() noexcept;

// The portable cache-blocked fp32 GEMM behind the SSE2 and NEON tables'
// gemm_f32: a kMr x kNr accumulator tile the compiler vectorizes across the
// kNr columns with the including TU's ISA. Unnamed namespace on purpose:
// each arch TU gets its own internal copy built with its own flags, so the
// linker can never fold a wider-ISA copy into a narrower table. Tiling
// never reorders an element's k-ascending sum (a kKc panel reloads the
// partial sum from c and carries on), so it is bit-identical to the scalar
// reference.
namespace {

inline void GemmF32Blocked(const float* a, const float* b, float* c, int m,
                           int k, int n) {
  constexpr int kMr = 4;
  constexpr int kNr = 16;
  constexpr int kKc = 256;
  for (int i = 0; i < m; ++i) {
    float* crow = c + std::ptrdiff_t(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = 0.0f;
  }
  for (int pp = 0; pp < k; pp += kKc) {
    const int pe = pp + kKc < k ? pp + kKc : k;
    for (int jj = 0; jj < n; jj += kNr) {
      const int nr = n - jj < kNr ? n - jj : kNr;
      for (int ii = 0; ii < m; ii += kMr) {
        const int mr = m - ii < kMr ? m - ii : kMr;
        if (mr == kMr && nr == kNr) {
          float acc[kMr][kNr];
          for (int r = 0; r < kMr; ++r) {
            const float* crow = c + std::ptrdiff_t(ii + r) * n + jj;
            for (int s = 0; s < kNr; ++s) acc[r][s] = crow[s];
          }
          for (int p = pp; p < pe; ++p) {
            const float* brow = b + std::ptrdiff_t(p) * n + jj;
            const float a0 = a[std::ptrdiff_t(ii + 0) * k + p];
            const float a1 = a[std::ptrdiff_t(ii + 1) * k + p];
            const float a2 = a[std::ptrdiff_t(ii + 2) * k + p];
            const float a3 = a[std::ptrdiff_t(ii + 3) * k + p];
            for (int s = 0; s < kNr; ++s) {
              const float bv = brow[s];
              acc[0][s] += a0 * bv;
              acc[1][s] += a1 * bv;
              acc[2][s] += a2 * bv;
              acc[3][s] += a3 * bv;
            }
          }
          for (int r = 0; r < kMr; ++r) {
            float* crow = c + std::ptrdiff_t(ii + r) * n + jj;
            for (int s = 0; s < kNr; ++s) crow[s] = acc[r][s];
          }
        } else {
          for (int r = 0; r < mr; ++r) {
            float* crow = c + std::ptrdiff_t(ii + r) * n + jj;
            const float* arow = a + std::ptrdiff_t(ii + r) * k;
            for (int p = pp; p < pe; ++p) {
              const float av = arow[p];
              const float* brow = b + std::ptrdiff_t(p) * n + jj;
              for (int s = 0; s < nr; ++s) crow[s] += av * brow[s];
            }
          }
        }
      }
    }
  }
}

}  // namespace

/// Per-architecture tables; nullptr when the ISA was not compiled in. The
/// SSE2/AVX2/NEON TUs always compile (their bodies are preprocessor-gated),
/// so these symbols always link.
const KernelTable* Sse2KernelTable() noexcept;
const KernelTable* Avx2KernelTable() noexcept;
const KernelTable* NeonKernelTable() noexcept;

}  // namespace sieve::simd
