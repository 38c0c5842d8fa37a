// Adaptive binary range coder (LZMA-style) — the codec's entropy layer.
//
// Binary symbols are coded against adaptive probability models; multi-bit
// values are coded through bit trees or direct (uniform) bits. The encoder
// and decoder adapt identically, so streams are self-describing given the
// same model layout on both sides.
//
// The per-symbol paths (EncodeBit, DecodeBit and the decoder's multi-bit
// readers) are defined inline below: an intra frame codes ~300k binary
// symbols, and an out-of-line call per symbol cost more than the coding.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sieve::codec {

/// Adaptive probability of a binary symbol being 0, in [1, 2047] out of 2048.
struct BitModel {
  std::uint16_t prob = 1024;
};

namespace internal {
inline constexpr std::uint32_t kTopValue = 1u << 24;
inline constexpr int kModelTotalBits = 11;  // probabilities out of 2048
inline constexpr int kMoveBits = 5;         // adaptation rate

/// The model update shared by both sides: move p(0) toward the coded bit.
inline void Adapt(BitModel& model, int bit) noexcept {
  if (bit == 0) {
    model.prob = std::uint16_t(
        model.prob + (((1u << kModelTotalBits) - model.prob) >> kMoveBits));
  } else {
    model.prob = std::uint16_t(model.prob - (model.prob >> kMoveBits));
  }
}
}  // namespace internal

/// Range encoder writing to a ByteWriter. Call Flush() exactly once at the
/// end; the object is single-use.
class RangeEncoder {
 public:
  explicit RangeEncoder(ByteWriter* out) : out_(out) {}

  RangeEncoder(const RangeEncoder&) = delete;
  RangeEncoder& operator=(const RangeEncoder&) = delete;

  /// Encode one bit against an adaptive model (model updates in place).
  void EncodeBit(BitModel& model, int bit) {
    using namespace internal;
    const std::uint32_t bound = (range_ >> kModelTotalBits) * model.prob;
    if (bit == 0) {
      range_ = bound;
    } else {
      low_ += bound;
      range_ -= bound;
    }
    Adapt(model, bit);
    Normalize();
  }

  /// Encode `num_bits` raw bits of `value` (MSB first) at fixed p=0.5.
  void EncodeDirectBits(std::uint32_t value, int num_bits);

  /// Encode value in [0, 2^num_bits) against a bit-tree of 2^num_bits - 1
  /// models (models[1..]); standard LZMA layout.
  void EncodeBitTree(std::span<BitModel> models, std::uint32_t value,
                     int num_bits);

  /// Encode an arbitrary unsigned value: a 6-bit bit-length prefix through a
  /// bit tree (lengths 0..32), then the value's remaining bits directly.
  void EncodeUnsigned(std::span<BitModel> length_models, std::uint32_t value);

  /// Terminate the stream. Must be the last call.
  void Flush();

 private:
  void Normalize() {
    while (range_ < internal::kTopValue) {
      ShiftLow();
      range_ <<= 8;
    }
  }

  void ShiftLow() {
    if (std::uint32_t(low_) < 0xFF000000u || (low_ >> 32) != 0) {
      const std::uint8_t carry = std::uint8_t(low_ >> 32);
      std::uint8_t byte = cache_;
      do {
        out_->PutU8(std::uint8_t(byte + carry));
        byte = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = std::uint8_t(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ << 8) & 0xFFFFFFFFull;
  }

  ByteWriter* out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

/// Range decoder over a borrowed byte span. Reads past the end decode as
/// zero bytes (matches the encoder's flush padding).
class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data);

  int DecodeBit(BitModel& model) {
    using namespace internal;
    const std::uint32_t bound = (range_ >> kModelTotalBits) * model.prob;
    int bit;
    if (code_ < bound) {
      range_ = bound;
      bit = 0;
    } else {
      code_ -= bound;
      range_ -= bound;
      bit = 1;
    }
    Adapt(model, bit);
    Normalize();
    return bit;
  }

  std::uint32_t DecodeDirectBits(int num_bits) {
    std::uint32_t value = 0;
    for (int i = 0; i < num_bits; ++i) {
      range_ >>= 1;
      std::uint32_t bit = 0;
      if (code_ >= range_) {
        code_ -= range_;
        bit = 1;
      }
      value = (value << 1) | bit;
      Normalize();
    }
    return value;
  }

  std::uint32_t DecodeBitTree(std::span<BitModel> models, int num_bits) {
    std::uint32_t node = 1;
    for (int i = 0; i < num_bits; ++i) {
      node = (node << 1) | std::uint32_t(DecodeBit(models[node]));
    }
    return node - (1u << num_bits);
  }

  std::uint32_t DecodeUnsigned(std::span<BitModel> length_models) {
    // The length tree spans 6 bits (0..63), but a valid stream never encodes
    // a length above 32: values are 32-bit. A corrupt stream can decode any
    // length, so clamp before shifting; the garbage value then fails
    // callers' range checks instead of being a UB shift.
    const int bits = std::min(int(DecodeBitTree(length_models, 6)), 32);
    if (bits == 0) return 0;
    if (bits == 1) return 1;
    return (1u << (bits - 1)) | DecodeDirectBits(bits - 1);
  }

  std::size_t bytes_consumed() const noexcept { return pos_; }

 private:
  /// Reads past the end of the span yield zero bytes, so a truncated or
  /// corrupt payload never reads out of bounds.
  std::uint8_t NextByte() noexcept {
    return pos_ < data_.size() ? data_[pos_++] : 0;
  }

  void Normalize() noexcept {
    while (range_ < internal::kTopValue) {
      range_ <<= 8;
      code_ = (code_ << 8) | NextByte();
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

/// Number of length-prefix models EncodeUnsigned/DecodeUnsigned need
/// (a 6-bit tree: indices 1..63).
inline constexpr std::size_t kUnsignedLengthModels = 64;

}  // namespace sieve::codec
