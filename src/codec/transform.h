// 8x8 DCT-II / IDCT, quantization, and zig-zag scan — the transform stage.
//
// The arithmetic runs through the SIMD kernel layer (common/simd/kernels.h):
// ForwardDct/InverseDct/Quantize/Dequantize dispatch to the active table
// (scalar or AVX2), which are bit-exact with each other, so
// bitstreams do not depend on the dispatch choice. SIEVE_KERNEL_ARCH=scalar
// pins the scalar reference path.
#pragma once

#include <array>
#include <cstdint>

namespace sieve::codec {

inline constexpr int kBlockSize = 8;
inline constexpr int kBlockPixels = kBlockSize * kBlockSize;

using PixelBlock = std::array<std::int16_t, kBlockPixels>;  ///< spatial, row-major
using CoeffBlock = std::array<std::int32_t, kBlockPixels>;  ///< quantized coefficients

/// Forward 8x8 DCT-II of a (centered) pixel block into float coefficients.
void ForwardDct(const PixelBlock& in, std::array<float, kBlockPixels>& out);

/// Inverse 8x8 DCT of float coefficients back to (centered) pixels,
/// rounded to nearest integer (half away from zero) and clamped to the
/// int16 range (reachable only from corrupt bitstreams).
void InverseDct(const std::array<float, kBlockPixels>& in, PixelBlock& out);

/// Per-coefficient quantizer step sizes for one plane kind at one qp.
struct QuantTable {
  std::array<std::int32_t, kBlockPixels> step{};
};

/// Build luma/chroma quantization tables for qp in [1, 51] (H.264-style
/// exponential step scaling over JPEG base matrices; qp+6 doubles steps).
QuantTable MakeLumaQuant(int qp);
QuantTable MakeChromaQuant(int qp);

/// Quantize float DCT coefficients to integers (round-to-nearest).
void Quantize(const std::array<float, kBlockPixels>& dct, const QuantTable& q,
              CoeffBlock& out);

/// Dequantize integer coefficients back to float DCT domain.
void Dequantize(const CoeffBlock& in, const QuantTable& q,
                std::array<float, kBlockPixels>& out);

/// Zig-zag scan order (index i of the scan -> row-major position).
const std::array<int, kBlockPixels>& ZigZagOrder();

/// Convenience: quantized round trip of a spatial block
/// (DCT -> quant -> dequant -> IDCT), as both encoder and decoder compute it.
void ReconstructBlock(const PixelBlock& src, const QuantTable& q,
                      CoeffBlock& coeffs, PixelBlock& recon);

/// Decoder side: coefficients -> spatial block.
void DecodeBlock(const CoeffBlock& coeffs, const QuantTable& q, PixelBlock& out);

}  // namespace sieve::codec
