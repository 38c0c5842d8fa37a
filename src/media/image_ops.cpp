#include "media/image_ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/simd/kernels.h"

namespace sieve::media {

namespace {

std::uint8_t ClampByte(double v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
}

std::uint8_t ClampByteInt(int v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

/// One output coordinate's bilinear taps: source indices i0, i1 and their
/// weights (1 - w, w).
struct BilinearTap {
  int i0, i1;
  double w0, w1;
};

BilinearTap TapAt(int i, double scale, int src_len) {
  const double f = (double(i) + 0.5) * scale - 0.5;
  const int i0 = std::clamp(int(std::floor(f)), 0, src_len - 1);
  const int i1 = std::min(i0 + 1, src_len - 1);
  const double w = std::clamp(f - double(i0), 0.0, 1.0);
  return {i0, i1, 1 - w, w};
}

}  // namespace

Plane ResizePlane(const Plane& src, int new_width, int new_height) {
  Plane dst(new_width, new_height);
  if (src.empty() || new_width <= 0 || new_height <= 0) return dst;
  const double sx = double(src.width()) / double(new_width);
  const double sy = double(src.height()) / double(new_height);
  // Column taps depend only on x: compute them once, not once per pixel.
  // The arithmetic per pixel is unchanged (same expressions, same order).
  std::vector<BilinearTap> cols(static_cast<std::size_t>(new_width));
  for (int x = 0; x < new_width; ++x) {
    cols[std::size_t(x)] = TapAt(x, sx, src.width());
  }
  for (int y = 0; y < new_height; ++y) {
    const BilinearTap ty = TapAt(y, sy, src.height());
    const std::uint8_t* r0 = src.row(ty.i0);
    const std::uint8_t* r1 = src.row(ty.i1);
    std::uint8_t* out = dst.row(y);
    for (int x = 0; x < new_width; ++x) {
      const BilinearTap& tx = cols[std::size_t(x)];
      const double top = double(r0[tx.i0]) * tx.w0 + double(r0[tx.i1]) * tx.w1;
      const double bot = double(r1[tx.i0]) * tx.w0 + double(r1[tx.i1]) * tx.w1;
      out[x] = ClampByte(top * ty.w0 + bot * ty.w1);
    }
  }
  return dst;
}

Frame ResizeFrame(const Frame& src, int new_width, int new_height) {
  Frame dst(new_width, new_height);
  dst.y() = ResizePlane(src.y(), new_width, new_height);
  dst.u() = ResizePlane(src.u(), new_width / 2, new_height / 2);
  dst.v() = ResizePlane(src.v(), new_width / 2, new_height / 2);
  return dst;
}

Plane BoxBlur(const Plane& src, int radius) {
  if (radius <= 0 || src.empty()) return src;
  const int w = src.width(), h = src.height();
  const int window = 2 * radius + 1;
  Plane tmp(w, h), dst(w, h);
  // Horizontal pass with running sum.
  for (int y = 0; y < h; ++y) {
    int sum = 0;
    for (int x = -radius; x <= radius; ++x) sum += src.at_clamped(x, y);
    for (int x = 0; x < w; ++x) {
      tmp.at(x, y) = ClampByteInt(sum / window);
      sum += src.at_clamped(x + radius + 1, y) - src.at_clamped(x - radius, y);
    }
  }
  // Vertical pass.
  for (int x = 0; x < w; ++x) {
    int sum = 0;
    for (int y = -radius; y <= radius; ++y) sum += tmp.at_clamped(x, y);
    for (int y = 0; y < h; ++y) {
      dst.at(x, y) = ClampByteInt(sum / window);
      sum += tmp.at_clamped(x, y + radius + 1) - tmp.at_clamped(x, y - radius);
    }
  }
  return dst;
}

Plane GaussianBlur(const Plane& src, double sigma) {
  if (sigma <= 0 || src.empty()) return src;
  const int radius = std::max(1, int(std::ceil(sigma * 3.0)));
  std::vector<double> kernel(std::size_t(radius) * 2 + 1);
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-double(i) * double(i) / (2 * sigma * sigma));
    kernel[std::size_t(i + radius)] = v;
    sum += v;
  }
  for (auto& k : kernel) k /= sum;

  const int w = src.width(), h = src.height();
  Plane tmp(w, h), dst(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[std::size_t(i + radius)] * double(src.at_clamped(x + i, y));
      }
      tmp.at(x, y) = ClampByte(acc);
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double acc = 0;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[std::size_t(i + radius)] * double(tmp.at_clamped(x, y + i));
      }
      dst.at(x, y) = ClampByte(acc);
    }
  }
  return dst;
}

Plane Downsample2x(const Plane& src) {
  const int w = std::max(1, src.width() / 2);
  const int h = std::max(1, src.height() / 2);
  Plane dst(w, h);
  // Every 2x2 quad lies inside the plane except on a source one pixel wide
  // or high: only that ragged last column or row reads through the clamp.
  const int inner_w = src.width() / 2, inner_h = src.height() / 2;
  const simd::KernelTable& kernels = simd::ActiveKernels();
  for (int y = 0; y < h; ++y) {
    int x = 0;
    if (y < inner_h) {
      kernels.downsample2x_row(src.row(2 * y), src.row(2 * y + 1), dst.row(y),
                               inner_w);
      x = inner_w;
    }
    for (; x < w; ++x) {
      const int sx = x * 2, sy = y * 2;
      const int sum = src.at_clamped(sx, sy) + src.at_clamped(sx + 1, sy) +
                      src.at_clamped(sx, sy + 1) + src.at_clamped(sx + 1, sy + 1);
      dst.at(x, y) = static_cast<std::uint8_t>((sum + 2) / 4);
    }
  }
  return dst;
}

GradientField SobelGradients(const Plane& src) {
  GradientField g;
  g.width = src.width();
  g.height = src.height();
  g.dx.assign(std::size_t(g.width) * std::size_t(g.height), 0);
  g.dy.assign(std::size_t(g.width) * std::size_t(g.height), 0);
  for (int y = 0; y < g.height; ++y) {
    for (int x = 0; x < g.width; ++x) {
      const int p00 = src.at_clamped(x - 1, y - 1), p10 = src.at_clamped(x, y - 1),
                p20 = src.at_clamped(x + 1, y - 1);
      const int p01 = src.at_clamped(x - 1, y), p21 = src.at_clamped(x + 1, y);
      const int p02 = src.at_clamped(x - 1, y + 1), p12 = src.at_clamped(x, y + 1),
                p22 = src.at_clamped(x + 1, y + 1);
      const std::size_t i = std::size_t(y) * std::size_t(g.width) + std::size_t(x);
      g.dx[i] = static_cast<std::int16_t>((p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02));
      g.dy[i] = static_cast<std::int16_t>((p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20));
    }
  }
  return g;
}

Yuv RgbToYuv(Rgb c) noexcept {
  const double r = c.r, g = c.g, b = c.b;
  Yuv out;
  out.y = ClampByte(0.299 * r + 0.587 * g + 0.114 * b);
  out.u = ClampByte(-0.168736 * r - 0.331264 * g + 0.5 * b + 128.0);
  out.v = ClampByte(0.5 * r - 0.418688 * g - 0.081312 * b + 128.0);
  return out;
}

Rgb YuvToRgb(Yuv c) noexcept {
  const double y = c.y, u = double(c.u) - 128.0, v = double(c.v) - 128.0;
  Rgb out;
  out.r = ClampByte(y + 1.402 * v);
  out.g = ClampByte(y - 0.344136 * u - 0.714136 * v);
  out.b = ClampByte(y + 1.772 * u);
  return out;
}

}  // namespace sieve::media
