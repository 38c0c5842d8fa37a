#include "media/image_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace sieve::media {
namespace {

Plane Constant(int w, int h, std::uint8_t v) { return Plane(w, h, v); }

Plane Noise(int w, int h, std::uint64_t seed) {
  Plane p(w, h);
  Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) p.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
  }
  return p;
}

bool SamePixels(const Plane& a, const Plane& b) {
  return a.SameSize(b) && std::equal(a.data(), a.data() + a.size(), b.data());
}

/// Per-pixel references for the row-pointer fast paths: every read goes
/// through at()/at_clamped() and every coordinate is recomputed per pixel.
Plane ReferenceDownsample2x(const Plane& src) {
  const int w = std::max(1, src.width() / 2);
  const int h = std::max(1, src.height() / 2);
  Plane dst(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int sum = src.at_clamped(2 * x, 2 * y) + src.at_clamped(2 * x + 1, 2 * y) +
                      src.at_clamped(2 * x, 2 * y + 1) +
                      src.at_clamped(2 * x + 1, 2 * y + 1);
      dst.at(x, y) = std::uint8_t((sum + 2) / 4);
    }
  }
  return dst;
}

Plane ReferenceResize(const Plane& src, int new_width, int new_height) {
  Plane dst(new_width, new_height);
  const double sx = double(src.width()) / double(new_width);
  const double sy = double(src.height()) / double(new_height);
  for (int y = 0; y < new_height; ++y) {
    const double fy = (double(y) + 0.5) * sy - 0.5;
    const int y0 = std::clamp(int(std::floor(fy)), 0, src.height() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const double wy = std::clamp(fy - double(y0), 0.0, 1.0);
    for (int x = 0; x < new_width; ++x) {
      const double fx = (double(x) + 0.5) * sx - 0.5;
      const int x0 = std::clamp(int(std::floor(fx)), 0, src.width() - 1);
      const int x1 = std::min(x0 + 1, src.width() - 1);
      const double wx = std::clamp(fx - double(x0), 0.0, 1.0);
      const double top = double(src.at(x0, y0)) * (1 - wx) + double(src.at(x1, y0)) * wx;
      const double bot = double(src.at(x0, y1)) * (1 - wx) + double(src.at(x1, y1)) * wx;
      const double v = top * (1 - wy) + bot * wy;
      dst.at(x, y) = std::uint8_t(std::clamp(v, 0.0, 255.0) + 0.5);
    }
  }
  return dst;
}

TEST(Resize, IdentityPreservesPixels) {
  Plane p(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) p.at(x, y) = std::uint8_t(x * 10 + y);
  }
  const Plane r = ResizePlane(p, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(r.at(x, y), p.at(x, y));
  }
}

TEST(Resize, ConstantStaysConstant) {
  const Plane r = ResizePlane(Constant(16, 12, 77), 31, 9);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 31; ++x) EXPECT_EQ(r.at(x, y), 77);
  }
}

TEST(Resize, UpscaleInterpolatesBetweenValues) {
  Plane p(2, 1);
  p.at(0, 0) = 0;
  p.at(1, 0) = 200;
  const Plane r = ResizePlane(p, 4, 1);
  EXPECT_LE(r.at(0, 0), r.at(1, 0));
  EXPECT_LE(r.at(1, 0), r.at(2, 0));
  EXPECT_LE(r.at(2, 0), r.at(3, 0));
}

TEST(Resize, MatchesPerPixelReferenceAtNonIntegerRatios) {
  struct Case {
    int src_w, src_h, dst_w, dst_h;
  };
  for (const Case c : {Case{37, 23, 14, 9}, Case{37, 23, 50, 31},
                       Case{37, 23, 100, 61}, Case{37, 23, 1, 1},
                       Case{37, 23, 37, 23}, Case{1, 1, 5, 3},
                       Case{3, 1, 7, 2}, Case{160, 120, 300, 300},
                       Case{320, 240, 112, 84}}) {
    const Plane src = Noise(c.src_w, c.src_h, 17);
    EXPECT_TRUE(SamePixels(ResizePlane(src, c.dst_w, c.dst_h),
                           ReferenceResize(src, c.dst_w, c.dst_h)))
        << c.src_w << "x" << c.src_h << " -> " << c.dst_w << "x" << c.dst_h;
  }
}

TEST(Resize, FrameKeepsChromaSubsampling) {
  Frame f(64, 48);
  const Frame r = ResizeFrame(f, 32, 16);
  EXPECT_EQ(r.width(), 32);
  EXPECT_EQ(r.height(), 16);
  EXPECT_EQ(r.u().width(), 16);
  EXPECT_EQ(r.u().height(), 8);
}

TEST(BoxBlur, ZeroRadiusIsCopy) {
  Plane p(4, 4);
  p.at(1, 1) = 255;
  const Plane b = BoxBlur(p, 0);
  EXPECT_EQ(b.at(1, 1), 255);
}

TEST(BoxBlur, SpreadsImpulse) {
  Plane p(9, 9, 0);
  p.at(4, 4) = 90;
  const Plane b = BoxBlur(p, 1);
  EXPECT_EQ(b.at(4, 4), 10);  // 90 / 9
  EXPECT_EQ(b.at(3, 4), 10);
  EXPECT_EQ(b.at(0, 0), 0);
}

TEST(BoxBlur, PreservesConstant) {
  const Plane b = BoxBlur(Constant(10, 10, 100), 3);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) EXPECT_EQ(b.at(x, y), 100);
  }
}

TEST(GaussianBlur, PreservesConstant) {
  const Plane b = GaussianBlur(Constant(12, 12, 50), 1.5);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) EXPECT_NEAR(b.at(x, y), 50, 1);
  }
}

TEST(GaussianBlur, ReducesImpulsePeak) {
  Plane p(15, 15, 0);
  p.at(7, 7) = 255;
  const Plane b = GaussianBlur(p, 1.0);
  EXPECT_LT(b.at(7, 7), 80);
  EXPECT_GT(b.at(7, 7), b.at(5, 7));
}

TEST(GaussianBlur, NonPositiveSigmaIsCopy) {
  Plane p(4, 4, 9);
  p.at(0, 0) = 200;
  const Plane b = GaussianBlur(p, 0.0);
  EXPECT_EQ(b.at(0, 0), 200);
}

TEST(Downsample2x, AveragesQuads) {
  Plane p(4, 2);
  p.at(0, 0) = 10;
  p.at(1, 0) = 20;
  p.at(0, 1) = 30;
  p.at(1, 1) = 40;
  const Plane d = Downsample2x(p);
  EXPECT_EQ(d.width(), 2);
  EXPECT_EQ(d.height(), 1);
  EXPECT_EQ(d.at(0, 0), 25);  // (10+20+30+40+2)/4
}

TEST(Downsample2x, MatchesPerPixelReferenceOnRaggedSizes) {
  // Odd sizes drop the last column/row; 1-pixel sizes clamp the quad.
  for (const int w : {1, 2, 3, 5, 8, 17}) {
    for (const int h : {1, 2, 3, 7, 16}) {
      const Plane src = Noise(w, h, std::uint64_t(w * 100 + h));
      EXPECT_TRUE(SamePixels(Downsample2x(src), ReferenceDownsample2x(src)))
          << w << "x" << h;
    }
  }
}

TEST(Downsample2x, HalvesDimensions) {
  const Plane d = Downsample2x(Plane(640, 480));
  EXPECT_EQ(d.width(), 320);
  EXPECT_EQ(d.height(), 240);
}

TEST(Sobel, FlatImageHasZeroGradient) {
  const GradientField g = SobelGradients(Constant(8, 8, 120));
  for (auto v : g.dx) EXPECT_EQ(v, 0);
  for (auto v : g.dy) EXPECT_EQ(v, 0);
}

TEST(Sobel, VerticalEdgeHasHorizontalGradient) {
  Plane p(8, 8, 0);
  for (int y = 0; y < 8; ++y) {
    for (int x = 4; x < 8; ++x) p.at(x, y) = 100;
  }
  const GradientField g = SobelGradients(p);
  const std::size_t idx = 3 * 8 + 4;  // at the edge, interior row
  EXPECT_GT(g.dx[idx - 1], 0);
  EXPECT_EQ(g.dy[3 * 8 + 2], 0);  // far from horizontal edges
}

TEST(ColorConversion, RoundTripIsClose) {
  for (int r = 0; r <= 255; r += 51) {
    for (int g = 0; g <= 255; g += 51) {
      for (int b = 0; b <= 255; b += 51) {
        const Rgb in{std::uint8_t(r), std::uint8_t(g), std::uint8_t(b)};
        const Rgb out = YuvToRgb(RgbToYuv(in));
        EXPECT_NEAR(out.r, in.r, 4);
        EXPECT_NEAR(out.g, in.g, 4);
        EXPECT_NEAR(out.b, in.b, 4);
      }
    }
  }
}

TEST(ColorConversion, GreyIsNeutralChroma) {
  const Yuv y = RgbToYuv(Rgb{128, 128, 128});
  EXPECT_NEAR(y.u, 128, 1);
  EXPECT_NEAR(y.v, 128, 1);
  EXPECT_NEAR(y.y, 128, 1);
}

}  // namespace
}  // namespace sieve::media
