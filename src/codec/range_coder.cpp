#include "codec/range_coder.h"

#include <cassert>

namespace sieve::codec {

void RangeEncoder::EncodeDirectBits(std::uint32_t value, int num_bits) {
  for (int i = num_bits - 1; i >= 0; --i) {
    range_ >>= 1;
    if ((value >> i) & 1u) low_ += range_;
    Normalize();
  }
}

void RangeEncoder::EncodeBitTree(std::span<BitModel> models, std::uint32_t value,
                                 int num_bits) {
  assert(models.size() >= (std::size_t(1) << num_bits));
  std::uint32_t node = 1;
  for (int i = num_bits - 1; i >= 0; --i) {
    const int bit = int((value >> i) & 1u);
    EncodeBit(models[node], bit);
    node = (node << 1) | std::uint32_t(bit);
  }
}

void RangeEncoder::EncodeUnsigned(std::span<BitModel> length_models,
                                  std::uint32_t value) {
  assert(length_models.size() >= kUnsignedLengthModels);
  int bits = 0;
  while ((std::uint64_t(1) << bits) <= value) ++bits;  // bits = bit-length
  EncodeBitTree(length_models, std::uint32_t(bits), 6);
  if (bits > 1) EncodeDirectBits(value & ((1u << (bits - 1)) - 1u), bits - 1);
}

void RangeEncoder::Flush() {
  for (int i = 0; i < 5; ++i) ShiftLow();
}

RangeDecoder::RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
  // The first encoder output byte is always 0 (initial cache); consume 5
  // bytes to fill the 32-bit code register.
  for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | NextByte();
}

}  // namespace sieve::codec
