// Internal sharing between the kernel-layer translation units: the DCT basis
// tables both architectures read, and the AVX2 table accessor the dispatcher
// resolves (a stub returning nullptr when the ISA is not compiled in).
// Not part of the public surface — include common/simd/kernels.h instead.
#pragma once

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

/// The AVX2 table; nullptr when the ISA was not compiled in. The AVX2 TU
/// always compiles (its body is preprocessor-gated), so the symbol always
/// links.
const KernelTable* Avx2KernelTable() noexcept;

}  // namespace sieve::simd
