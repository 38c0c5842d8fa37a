#include "codec/range_coder.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/rng.h"

namespace sieve::codec {
namespace {

std::vector<std::uint8_t> Finish(ByteWriter& w, RangeEncoder& rc) {
  rc.Flush();
  return w.Release();
}

TEST(RangeCoder, SingleBitRoundTrip) {
  for (int bit : {0, 1}) {
    ByteWriter w;
    RangeEncoder enc(&w);
    BitModel m;
    enc.EncodeBit(m, bit);
    const auto bytes = Finish(w, enc);
    RangeDecoder dec(bytes);
    BitModel m2;
    EXPECT_EQ(dec.DecodeBit(m2), bit);
  }
}

TEST(RangeCoder, RandomBitSequenceRoundTrip) {
  Rng rng(1);
  std::vector<int> bits;
  for (int i = 0; i < 10000; ++i) bits.push_back(rng.Chance(0.3) ? 1 : 0);

  ByteWriter w;
  RangeEncoder enc(&w);
  BitModel m;
  for (int b : bits) enc.EncodeBit(m, b);
  const auto bytes = Finish(w, enc);

  RangeDecoder dec(bytes);
  BitModel m2;
  for (int b : bits) ASSERT_EQ(dec.DecodeBit(m2), b);
}

TEST(RangeCoder, SkewedStreamCompresses) {
  // 99% zeros: the adaptive model should get well under 1 bit/symbol.
  Rng rng(2);
  ByteWriter w;
  RangeEncoder enc(&w);
  BitModel m;
  const int n = 100000;
  for (int i = 0; i < n; ++i) enc.EncodeBit(m, rng.Chance(0.01) ? 1 : 0);
  const auto bytes = Finish(w, enc);
  EXPECT_LT(bytes.size(), std::size_t(n / 8 / 4))
      << "expected at least 4x better than raw bits";
}

TEST(RangeCoder, UniformStreamDoesNotExplode) {
  Rng rng(3);
  ByteWriter w;
  RangeEncoder enc(&w);
  BitModel m;
  const int n = 80000;
  for (int i = 0; i < n; ++i) enc.EncodeBit(m, rng.Chance(0.5) ? 1 : 0);
  const auto bytes = Finish(w, enc);
  EXPECT_LT(bytes.size(), std::size_t(n / 8 + n / 80))
      << "overhead must stay near 1 bit/symbol";
}

TEST(RangeCoder, DirectBitsRoundTrip) {
  ByteWriter w;
  RangeEncoder enc(&w);
  enc.EncodeDirectBits(0xABCDE, 20);
  enc.EncodeDirectBits(0x3, 2);
  enc.EncodeDirectBits(0, 1);
  const auto bytes = Finish(w, enc);
  RangeDecoder dec(bytes);
  EXPECT_EQ(dec.DecodeDirectBits(20), 0xABCDEu);
  EXPECT_EQ(dec.DecodeDirectBits(2), 0x3u);
  EXPECT_EQ(dec.DecodeDirectBits(1), 0u);
}

TEST(RangeCoder, BitTreeRoundTripAllValues) {
  constexpr int kBits = 6;
  std::array<BitModel, 1 << kBits> enc_models{}, dec_models{};
  ByteWriter w;
  RangeEncoder enc(&w);
  for (std::uint32_t v = 0; v < (1u << kBits); ++v) {
    enc.EncodeBitTree(enc_models, v, kBits);
  }
  const auto bytes = Finish(w, enc);
  RangeDecoder dec(bytes);
  for (std::uint32_t v = 0; v < (1u << kBits); ++v) {
    ASSERT_EQ(dec.DecodeBitTree(dec_models, kBits), v);
  }
}

TEST(RangeCoder, UnsignedRoundTripBoundaries) {
  const std::uint32_t values[] = {0, 1, 2, 3, 127, 128, 255, 256, 65535,
                                  1u << 20, 0x7FFFFFFF, 0xFFFFFFFF};
  std::array<BitModel, kUnsignedLengthModels> em{}, dm{};
  ByteWriter w;
  RangeEncoder enc(&w);
  for (auto v : values) enc.EncodeUnsigned(em, v);
  const auto bytes = Finish(w, enc);
  RangeDecoder dec(bytes);
  for (auto v : values) ASSERT_EQ(dec.DecodeUnsigned(dm), v);
}

TEST(RangeCoder, MixedSymbolStreamRoundTrip) {
  Rng rng(7);
  std::array<BitModel, kUnsignedLengthModels> em{}, dm{};
  std::array<BitModel, 16> tree_em{}, tree_dm{};
  BitModel bit_em, bit_dm;

  struct Symbol {
    int kind;
    std::uint32_t value;
  };
  std::vector<Symbol> symbols;
  for (int i = 0; i < 5000; ++i) {
    const int kind = rng.UniformInt(0, 2);
    std::uint32_t value = 0;
    if (kind == 0) value = rng.Chance(0.2);
    if (kind == 1) value = std::uint32_t(rng.UniformInt(0, 15));
    if (kind == 2) value = std::uint32_t(rng.UniformInt(0, 1 << 16));
    symbols.push_back({kind, value});
  }

  ByteWriter w;
  RangeEncoder enc(&w);
  for (const auto& s : symbols) {
    if (s.kind == 0) enc.EncodeBit(bit_em, int(s.value));
    if (s.kind == 1) enc.EncodeBitTree(tree_em, s.value, 4);
    if (s.kind == 2) enc.EncodeUnsigned(em, s.value);
  }
  const auto bytes = Finish(w, enc);
  RangeDecoder dec(bytes);
  for (const auto& s : symbols) {
    if (s.kind == 0) {
      ASSERT_EQ(std::uint32_t(dec.DecodeBit(bit_dm)), s.value);
    }
    if (s.kind == 1) {
      ASSERT_EQ(dec.DecodeBitTree(tree_dm, 4), s.value);
    }
    if (s.kind == 2) {
      ASSERT_EQ(dec.DecodeUnsigned(dm), s.value);
    }
  }
}

TEST(RangeCoder, EmptyStreamDecodesZeros) {
  // Decoding from an empty span must not crash; it yields deterministic 0s.
  RangeDecoder dec(std::span<const std::uint8_t>{});
  BitModel m;
  EXPECT_EQ(dec.DecodeBit(m), 0);
}

class RangeCoderSkewSweep : public testing::TestWithParam<double> {};

TEST_P(RangeCoderSkewSweep, RoundTripAtEverySkew) {
  const double p_one = GetParam();
  Rng rng(std::uint64_t(p_one * 1000) + 11);
  std::vector<int> bits;
  for (int i = 0; i < 20000; ++i) bits.push_back(rng.Chance(p_one) ? 1 : 0);
  ByteWriter w;
  RangeEncoder enc(&w);
  BitModel m;
  for (int b : bits) enc.EncodeBit(m, b);
  enc.Flush();
  const auto bytes = w.Release();
  RangeDecoder dec(bytes);
  BitModel m2;
  for (int b : bits) ASSERT_EQ(dec.DecodeBit(m2), b);
}

INSTANTIATE_TEST_SUITE_P(Skews, RangeCoderSkewSweep,
                         testing::Values(0.001, 0.05, 0.2, 0.5, 0.8, 0.95,
                                         0.999));

/// Reference LZMA-style encoder, written out plainly, for byte-level
/// comparison: bit trees and unsigned values are composed from Bit/Direct
/// exactly as the format defines them.
class ReferenceEncoder {
 public:
  void Bit(BitModel& model, int bit) {
    const std::uint32_t bound = (range_ >> 11) * model.prob;
    if (bit == 0) {
      range_ = bound;
      model.prob = std::uint16_t(model.prob + ((2048u - model.prob) >> 5));
    } else {
      low_ += bound;
      range_ -= bound;
      model.prob = std::uint16_t(model.prob - (model.prob >> 5));
    }
    Normalize();
  }
  void Direct(std::uint32_t value, int num_bits) {
    for (int i = num_bits - 1; i >= 0; --i) {
      range_ >>= 1;
      if ((value >> i) & 1u) low_ += range_;
      Normalize();
    }
  }
  void Tree(BitModel* models, std::uint32_t value, int num_bits) {
    std::uint32_t node = 1;
    for (int i = num_bits - 1; i >= 0; --i) {
      const int bit = int((value >> i) & 1u);
      Bit(models[node], bit);
      node = (node << 1) | std::uint32_t(bit);
    }
  }
  void Unsigned(BitModel* length_models, std::uint32_t value) {
    int bits = 0;
    while ((std::uint64_t(1) << bits) <= value) ++bits;
    Tree(length_models, std::uint32_t(bits), 6);
    if (bits > 1) Direct(value & ((1u << (bits - 1)) - 1u), bits - 1);
  }
  std::vector<std::uint8_t> Finish() {
    for (int i = 0; i < 5; ++i) ShiftLow();
    return out_;
  }

 private:
  void Normalize() {
    while (range_ < (1u << 24)) {
      ShiftLow();
      range_ <<= 8;
    }
  }
  void ShiftLow() {
    if (std::uint32_t(low_) < 0xFF000000u || (low_ >> 32) != 0) {
      const std::uint8_t carry = std::uint8_t(low_ >> 32);
      std::uint8_t byte = cache_;
      do {
        out_.push_back(std::uint8_t(byte + carry));
        byte = 0xFF;
      } while (--cache_size_ != 0);
      cache_ = std::uint8_t(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ << 8) & 0xFFFFFFFFull;
  }

  std::vector<std::uint8_t> out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

TEST(RangeCoder, RandomSymbolsAtExtremeProbabilitiesMatchReference) {
  // Adaptive bits on models pinned near both probability limits (with rare
  // surprises, which produce long 0xFF carry chains), interleaved with
  // direct bits of every width, bit trees and unsigned values at the
  // 32-bit extremes. The bytes must equal the reference encoder's and the
  // decoder must recover every symbol.
  enum Kind { kBit, kDirect, kTree, kUnsigned };
  struct Symbol {
    Kind kind;
    int model;
    std::uint32_t value;
    int bits;
  };
  Rng rng(41);
  std::vector<Symbol> symbols;
  for (int i = 0; i < 60000; ++i) {
    const int r = rng.UniformInt(0, 99);
    if (r < 85) {
      const int model = rng.UniformInt(0, 3);
      const bool surprise = rng.Chance(0.002);
      const int likely = model < 2 ? 0 : 1;  // models 0-1 favour 0, 2-3 favour 1
      symbols.push_back({kBit, model, std::uint32_t(surprise ? 1 - likely : likely), 1});
    } else if (r < 92) {
      const int bits = rng.UniformInt(1, 32);
      const std::uint32_t v = std::uint32_t(rng.UniformU64(0, 0xFFFFFFFFull));
      symbols.push_back({kDirect, 0, bits == 32 ? v : v & ((1u << bits) - 1u), bits});
    } else if (r < 96) {
      symbols.push_back({kTree, 0, std::uint32_t(rng.UniformInt(0, 63)), 6});
    } else {
      constexpr std::uint32_t kEdges[] = {0u, 1u, 2u, 0x7FFFFFFFu, 0x80000000u,
                                          0xFFFFFFFFu};
      const std::uint32_t v = rng.Chance(0.5)
                                  ? kEdges[rng.UniformInt(0, 5)]
                                  : std::uint32_t(rng.UniformU64(0, 0xFFFFFFFFull));
      symbols.push_back({kUnsigned, 0, v, 0});
    }
  }

  ByteWriter w;
  RangeEncoder enc(&w);
  std::array<BitModel, 4> bit_models{};
  std::array<BitModel, 64> tree_models{};
  std::array<BitModel, kUnsignedLengthModels> length_models{};
  ReferenceEncoder ref;
  std::array<BitModel, 4> ref_bit_models{};
  std::array<BitModel, 64> ref_tree_models{};
  std::array<BitModel, kUnsignedLengthModels> ref_length_models{};
  for (const Symbol& s : symbols) {
    switch (s.kind) {
      case kBit:
        enc.EncodeBit(bit_models[std::size_t(s.model)], int(s.value));
        ref.Bit(ref_bit_models[std::size_t(s.model)], int(s.value));
        break;
      case kDirect:
        enc.EncodeDirectBits(s.value, s.bits);
        ref.Direct(s.value, s.bits);
        break;
      case kTree:
        enc.EncodeBitTree(tree_models, s.value, s.bits);
        ref.Tree(ref_tree_models.data(), s.value, s.bits);
        break;
      case kUnsigned:
        enc.EncodeUnsigned(length_models, s.value);
        ref.Unsigned(ref_length_models.data(), s.value);
        break;
    }
  }
  const auto bytes = Finish(w, enc);
  EXPECT_EQ(bytes, ref.Finish());
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(bit_models[m].prob, ref_bit_models[m].prob) << "model " << m;
  }

  RangeDecoder dec(bytes);
  std::array<BitModel, 4> dec_bit_models{};
  std::array<BitModel, 64> dec_tree_models{};
  std::array<BitModel, kUnsignedLengthModels> dec_length_models{};
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Symbol& s = symbols[i];
    std::uint32_t got = 0;
    switch (s.kind) {
      case kBit:
        got = std::uint32_t(dec.DecodeBit(dec_bit_models[std::size_t(s.model)]));
        break;
      case kDirect:
        got = dec.DecodeDirectBits(s.bits);
        break;
      case kTree:
        got = dec.DecodeBitTree(dec_tree_models, s.bits);
        break;
      case kUnsigned:
        got = dec.DecodeUnsigned(dec_length_models);
        break;
    }
    ASSERT_EQ(got, s.value) << "symbol " << i << " kind " << int(s.kind);
  }
  EXPECT_LE(dec.bytes_consumed(), bytes.size());
}

}  // namespace
}  // namespace sieve::codec
