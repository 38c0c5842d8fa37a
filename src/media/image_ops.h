// Image-processing primitives: resize, blur, gradients, color conversion.
#pragma once

#include <cstdint>

#include "media/frame.h"

namespace sieve::media {

/// Bilinear resample of a plane to (new_width, new_height).
Plane ResizePlane(const Plane& src, int new_width, int new_height);

/// Bilinear resample of a full YUV frame. Target dims must be positive/even.
Frame ResizeFrame(const Frame& src, int new_width, int new_height);

/// Separable box blur with radius r (r=0 returns a copy).
Plane BoxBlur(const Plane& src, int radius);

/// Separable Gaussian blur with given sigma (sigma<=0 returns a copy).
Plane GaussianBlur(const Plane& src, double sigma);

/// 2x decimation with 2x2 averaging (the lookahead's analysis scale and the
/// SIFT pyramid).
Plane Downsample2x(const Plane& src);

/// Sobel gradients; outputs are per-pixel dx, dy in [-1020, 1020] packed as
/// int16 vectors the same size as the plane.
struct GradientField {
  int width = 0;
  int height = 0;
  std::vector<std::int16_t> dx;
  std::vector<std::int16_t> dy;
};
GradientField SobelGradients(const Plane& src);

/// RGB (8-bit, BT.601 full-range) -> YUV pixel conversion.
struct Rgb {
  std::uint8_t r = 0, g = 0, b = 0;
};
struct Yuv {
  std::uint8_t y = 0, u = 128, v = 128;
};
Yuv RgbToYuv(Rgb rgb) noexcept;
Rgb YuvToRgb(Yuv yuv) noexcept;

}  // namespace sieve::media
