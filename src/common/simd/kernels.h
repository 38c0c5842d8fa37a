// SIMD kernel layer: runtime-dispatched implementations of the innermost
// loops — block SAD and the 8x8 DCT/IDCT + quantizer pair that profiling
// puts at the top of a motion-heavy encode, the lookahead analysis pass's
// block texture, deadzone SAD and 2x decimation, and the int8 and fp32
// GEMMs under every NN conv.
//
// Design rules (the whole point of this layer):
//
//  * Two tables exist. The scalar table is the reference semantics and the
//    fallback on every CPU without AVX2 (pre-AVX2 x86, ARM, anything else);
//    the AVX2 table is the fast path on x86.
//
//  * Every kernel is BIT-EXACT across the two tables. The AVX2 table
//    performs the same floating-point operations as the scalar one in the
//    same order (vectorized across independent *outputs*, never across a
//    single output's accumulation), uses IEEE-exact ops only (mul/add/div —
//    no FMA, no rsqrt/rcp approximations), and replicates std::lround's
//    round-half-away-from-zero. The library is compiled with
//    -ffp-contract=off so the compiler cannot contract the scalar path into
//    FMA either. Consequence: encoded bitstreams are byte-identical
//    whichever table is active.
//
//  * Dispatch is compile-time gated (the AVX2 TU compiles to a stub
//    returning nullptr off x86) plus runtime-verified (CPUID). Hardware-best
//    is AVX2 when the CPU has it, else scalar. The SIEVE_KERNEL_ARCH
//    environment variable (scalar|avx2) pins a compiled-in, CPU-supported
//    table; SetActiveKernels() overrides it for tests and tools.
//
//  * This layer sits at the bottom of the dependency graph (raw pointers and
//    strides only, no media/codec/nn types) so media/, codec/ and nn/ can
//    all call it.
//
// See docs/perf.md ("The SIMD kernel layer") for how to add a kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sieve::simd {

/// All transform kernels operate on 8x8 blocks in row-major order.
inline constexpr int kBlockDim = 8;
inline constexpr int kBlockLen = kBlockDim * kBlockDim;

/// One architecture's implementations of the hot kernels. Strides are in
/// elements (== bytes for the uint8 SAD inputs). All pointers must be valid
/// for the full extent they describe; transform pointers must not alias.
struct KernelTable {
  const char* name;  ///< "scalar" | "avx2"

  /// Sum of absolute differences over one row of `w` pixels.
  std::uint32_t (*sad_row)(const std::uint8_t* a, const std::uint8_t* b, int w);

  /// SAD of a 16-wide, h-tall region (the macroblock fast case).
  std::uint64_t (*sad16xh)(const std::uint8_t* a, int a_stride,
                           const std::uint8_t* b, int b_stride, int h);

  /// SAD of a w×h region with row-granular early termination: after each
  /// row, if the running sum has reached `bound` the scan stops and the
  /// partial sum is returned. Exact when the result is < bound; some value
  /// in [bound, exact] otherwise. Every table checks at the same row
  /// boundaries, so return values are identical across architectures.
  std::uint64_t (*sad_bounded)(const std::uint8_t* a, int a_stride,
                               const std::uint8_t* b, int b_stride, int w,
                               int h, std::uint64_t bound);

  /// Forward 8x8 DCT-II (orthonormal) of centered int16 pixels into floats.
  void (*fdct8x8)(const std::int16_t* in, float* out);

  /// Inverse 8x8 DCT of floats back to int16 pixels, rounded half away from
  /// zero (std::lround semantics) and clamped to the int16 range. Inputs
  /// must be finite with magnitude < 2^30.
  void (*idct8x8)(const float* in, std::int16_t* out);

  /// out[i] = lround(dct[i] / float(step[i])). Steps must be in [1, 2^24);
  /// |dct[i] / step[i]| must be < 2^31.
  void (*quantize8x8)(const float* dct, const std::int32_t* step,
                      std::int32_t* out);

  /// out[i] = float(in[i]) * float(step[i]).
  void (*dequantize8x8)(const std::int32_t* in, const std::int32_t* step,
                        float* out);

  /// Quantized GEMM microkernel: for each row i in [0, m),
  /// out[i*ldo + n] = sum_{p<k} int32(a[i*lda + p]) * int32(b[p][n]) for n
  /// in [0, n_cols). `a` holds m rows of k unsigned-8-bit quantized
  /// activations with row stride `lda`; `b_packed` holds signed-8-bit
  /// weights in the k-pair interleaved layout produced by PackGemmB. The
  /// AVX2 table tiles m (4 rows per B-panel pass) so the weight panel is
  /// loaded once per tile instead of once per row — that, not the 8-bit
  /// multiplies alone, is where the int8 speedup over fp32 comes from. All
  /// arithmetic is exact 32-bit integer math (no saturating widening
  /// multiplies), so every table returns identical accumulators regardless
  /// of tiling. Safe for k <= 2^16 (the worst case 255 * 128 * 2^16 stays
  /// inside int32).
  void (*gemm_u8s8)(const std::uint8_t* a, int lda, int m,
                    const std::int8_t* b_packed, int k, int n_cols,
                    std::int32_t* out, int ldo);

  /// Activation quantizer: out[i] = clamp(trunc(x[i] * inv_scale + bias),
  /// 0, 255) where bias = zero_point + 0.5 — i.e. round half up for the
  /// values that survive the clamp (truncation equals floor once the value
  /// is >= 0, and every negative value clamps to 0 either way). The
  /// multiply and add are single IEEE float ops and the truncating convert
  /// is the same cvtt on every lane width, so both tables produce identical
  /// codes. Inputs must be finite.
  void (*quantize_act_u8)(const float* x, std::size_t len, float inv_scale,
                          float bias, std::uint8_t* out);

  /// fp32 GEMM: c = a(m x k) * b(k x n), all row-major and densely packed
  /// (lda = k, ldb = ldc = n); c is fully overwritten. Each output element
  /// is the k-ascending sum c[i][j] = ((+0.0f + a[i][0]*b[0][j]) +
  /// a[i][1]*b[1][j]) + ..., every product and every partial sum rounded to
  /// float (separate multiply and add, never FMA). Tables may tile m, n and
  /// k however they like but never reorder or split one element's sum, so
  /// both tables return identical bits.
  void (*gemm_f32)(const float* a, const float* b, float* c, int m, int k,
                   int n);

  /// Texture of one 8x8 block: sum over its 64 pixels of |64 * x - S|, S the
  /// block's pixel sum (64 times the total absolute deviation from the mean,
  /// the lookahead's exact integer intra-cost form). At most 64 * 64 * 255.
  std::uint32_t (*intra_dev8x8)(const std::uint8_t* p, int stride);

  /// Noise-tolerant SAD of two 8x8 blocks: sum of max(|a - b| - deadzone, 0)
  /// over the 64 pixel pairs. `deadzone` must be in [0, 255].
  std::uint32_t (*deadzone_sad8x8)(const std::uint8_t* a, int a_stride,
                                   const std::uint8_t* b, int b_stride,
                                   int deadzone);

  /// One output row of a 2x2-average decimation: out[x] = (r0[2x] +
  /// r0[2x+1] + r1[2x] + r1[2x+1] + 2) / 4 for x in [0, w). Reads 2w bytes of
  /// each source row.
  void (*downsample2x_row)(const std::uint8_t* r0, const std::uint8_t* r1,
                           std::uint8_t* out, int w);
};

enum class KernelArch { kScalar, kAvx2 };

const char* KernelArchName(KernelArch arch) noexcept;

/// True if the given architecture's table was compiled into this binary.
bool ArchCompiled(KernelArch arch) noexcept;

/// True if the architecture is compiled in AND the running CPU supports it
/// (CPUID-checked for AVX2; scalar is always supported).
bool ArchSupported(KernelArch arch) noexcept;

/// The table for an architecture; falls back to scalar when that arch was
/// not compiled in. (kScalar always exists.)
const KernelTable& KernelsFor(KernelArch arch) noexcept;

/// All architectures compiled into this binary (always includes kScalar).
std::vector<KernelArch> CompiledArches();

/// Element count of the packed B buffer gemm_u8s8 consumes for a k × n_cols
/// weight matrix: ((k + 1) / 2) * n_cols * 2 (odd k is zero-padded).
std::size_t PackedGemmBSize(int k, int n_cols) noexcept;

/// Packs a row-major [n_cols][k] signed-int8 weight matrix (b[n * k + p] is
/// output column n, reduction index p) into the k-pair interleaved layout
/// gemm_u8s8 consumes: packed[(p2 * n_cols + n) * 2 + j] = b[n][2*p2 + j],
/// with the odd tail element zero-padded. `packed` must hold
/// PackedGemmBSize(k, n_cols) elements.
void PackGemmB(const std::int8_t* b, int k, int n_cols,
               std::int8_t* packed) noexcept;

/// Parses the SIEVE_KERNEL_ARCH environment override ("scalar"|"avx2").
/// Returns true and writes `*out` when the variable is set to a recognized
/// name; unset or unrecognized values are ignored.
bool KernelArchFromEnv(KernelArch* out) noexcept;

/// The best supported architecture, honoring SIEVE_KERNEL_ARCH. An env
/// override naming an unsupported or uncompiled arch is ignored (the
/// hardware-best table is used instead).
KernelArch BestArch() noexcept;

/// The table the hot paths dispatch through. Resolved on first use from
/// BestArch(); a relaxed atomic pointer load thereafter.
const KernelTable& ActiveKernels() noexcept;

/// Override the active table (tests, tools, A/B benches). Takes precedence
/// over the environment overrides; falls back to scalar if `arch` is not compiled
/// in. Not intended to be raced against in-flight encodes — switch between
/// them.
void SetActiveKernels(KernelArch arch) noexcept;

/// The architecture of the currently active table.
KernelArch ActiveArch() noexcept;

/// RAII override of the active table (tests, A/B tools): activates `arch`
/// on construction and restores the previously active table on destruction.
class ScopedKernelArch {
 public:
  explicit ScopedKernelArch(KernelArch arch) noexcept : prev_(ActiveArch()) {
    SetActiveKernels(arch);
  }
  ~ScopedKernelArch() { SetActiveKernels(prev_); }
  ScopedKernelArch(const ScopedKernelArch&) = delete;
  ScopedKernelArch& operator=(const ScopedKernelArch&) = delete;

 private:
  KernelArch prev_;
};

}  // namespace sieve::simd
