// Cross-version golden digests: FNV-1a hashes of the codec's outputs on
// fixed seeds, pinned to the values the plain per-pixel loops produced.
//
// The equivalence tests compare two paths of one build against each other,
// so a change that moves both paths the same way would still pass there.
// These digests compare the build against recorded history instead: any
// rewrite of a hot loop that flips one analysis-cost bit, one container or
// still byte, or one decoded pixel fails here. Every kernel dispatch
// (SIEVE_KERNEL_ARCH=scalar|avx2) and every -march must reproduce them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "codec/analysis.h"
#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/still.h"
#include "media/image_ops.h"
#include "synth/scene.h"

namespace sieve::codec {
namespace {

class Fnv1a {
 public:
  void Bytes(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, 8);
    Bytes(b);
  }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Plane(const media::Plane& p) {
    U64(std::uint64_t(p.width()));
    U64(std::uint64_t(p.height()));
    Bytes(std::span<const std::uint8_t>(p.data(), p.size()));
  }
  void Frame(const media::Frame& f) {
    Plane(f.y());
    Plane(f.u());
    Plane(f.v());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// 160x120 analyses at 80x60: the last block row is a 4-pixel border row.
/// Short gaps and dwells put several enter/leave events in 48 frames.
const synth::SyntheticVideo& EventScene() {
  static const synth::SyntheticVideo scene = [] {
    synth::SceneConfig c;
    c.width = 160;
    c.height = 120;
    c.num_frames = 48;
    c.seed = 1301;
    c.mean_gap_seconds = 0.4;
    c.min_gap_seconds = 0.2;
    c.mean_dwell_seconds = 0.4;
    c.min_dwell_seconds = 0.2;
    c.ramp_seconds = 0.2;
    c.noise_sigma = 1.5;
    return synth::GenerateScene(c);
  }();
  return scene;
}

/// 100x70 analyses at 50x35 (neither a multiple of 8) with camera shake,
/// and codes with partial macroblocks on both edges.
const synth::SyntheticVideo& RaggedScene() {
  static const synth::SyntheticVideo scene = [] {
    synth::SceneConfig c;
    c.width = 100;
    c.height = 70;
    c.num_frames = 24;
    c.seed = 1302;
    c.mean_gap_seconds = 0.3;
    c.min_gap_seconds = 0.1;
    c.jitter_px = 2;
    c.noise_sigma = 2.5;
    return synth::GenerateScene(c);
  }();
  return scene;
}

constexpr std::array<int, 3> kScenecuts = {40, 250, 400};

EncodedVideo EncodeAt(const media::RawVideo& video, int scenecut) {
  EncoderParams params = EncoderParams::Semantic(250, scenecut);
  params.threads = 1;
  auto encoded = VideoEncoder(params).Encode(video);
  EXPECT_TRUE(encoded.ok());
  return encoded.ok() ? *encoded : EncodedVideo{};
}

TEST(GoldenDigest, AnalysisCosts) {
  Fnv1a h;
  for (const auto* scene : {&EventScene(), &RaggedScene()}) {
    for (const FrameCost& c : AnalyzeVideo(scene->video)) {
      h.F64(c.intra_cost);
      h.F64(c.inter_cost);
    }
  }
  EXPECT_EQ(h.value(), 0x6c09364bd3bc6701ull) << std::hex << "0x" << h.value();
}

TEST(GoldenDigest, Containers) {
  constexpr std::array<std::uint64_t, kScenecuts.size()> kExpected = {
      0x2ddb79f0a9b000e4ull, 0x44e5bffd0260a7ceull, 0x75d5e12b363cf93bull};
  for (std::size_t i = 0; i < kScenecuts.size(); ++i) {
    Fnv1a h;
    for (const auto* scene : {&EventScene(), &RaggedScene()}) {
      h.Bytes(EncodeAt(scene->video, kScenecuts[i]).bytes);
    }
    EXPECT_EQ(h.value(), kExpected[i])
        << "scenecut " << kScenecuts[i] << std::hex << ": 0x" << h.value();
  }
}

TEST(GoldenDigest, StillsOfResizedFrames) {
  // Non-integer down- and up-scaling ratios, as the edge transcode does for
  // the NN input size.
  constexpr std::array<std::array<int, 2>, 3> kSizes = {
      {{64, 48}, {300, 300}, {122, 86}}};
  Fnv1a h;
  const media::RawVideo& video = EventScene().video;
  for (const std::size_t f : {std::size_t(0), std::size_t(19), std::size_t(37)}) {
    for (const auto& size : kSizes) {
      const media::Frame resized =
          media::ResizeFrame(video.frames[f], size[0], size[1]);
      h.Frame(resized);
      h.Bytes(EncodeStill(resized, 26));
    }
  }
  EXPECT_EQ(h.value(), 0xd7f5308fe68deaf3ull) << std::hex << "0x" << h.value();
}

TEST(GoldenDigest, DecodedFrames) {
  Fnv1a h;
  for (const auto* scene : {&EventScene(), &RaggedScene()}) {
    for (const int scenecut : kScenecuts) {
      const EncodedVideo encoded = EncodeAt(scene->video, scenecut);
      auto decoder = VideoDecoder::Open(encoded.bytes);
      ASSERT_TRUE(decoder.ok());
      auto decoded = decoder->DecodeAll();
      ASSERT_TRUE(decoded.ok());
      for (const media::Frame& f : decoded->frames) h.Frame(f);
    }
  }
  EXPECT_EQ(h.value(), 0x1d2118dd21e76130ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace sieve::codec
