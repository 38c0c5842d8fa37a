// Time alignment for cross-camera queries.
//
// Every camera session numbers its own frames from zero, so frame ids from
// different sessions are not comparable. The runtime therefore keeps one
// shared stream clock (seconds since the Runtime was constructed) and stamps
// each session with its position on it at OpenSession time. A frame id then
// maps onto the shared clock as
//
//   t(frame) = open_seconds + frame / fps
//
// which is the contract every query answer is expressed in: two hits from
// different cameras with overlapping [t0, t1) intervals were on screen at
// the same wall-clock moment. The mapping is a pure function of the two
// session constants, so replaying a drained session reproduces bit-exact
// interval endpoints (the cross-camera equivalence tests rely on this).
#pragma once

#include <cmath>
#include <cstddef>

namespace sieve::query {

/// A camera session's position on the runtime's shared stream clock: the
/// session opened `open_seconds` after the runtime epoch and captures `fps`
/// frames per second.
struct CameraClock {
  double open_seconds = 0.0;
  double fps = 30.0;

  /// True when both constants are finite and fps > 0: then TimeOf is
  /// non-decreasing in the frame, which windowed queries rely on. Session
  /// opens and the journal reader reject other clocks; the index does not
  /// register them.
  bool Valid() const noexcept {
    return std::isfinite(open_seconds) && std::isfinite(fps) && fps > 0;
  }

  /// The shared-clock instant of `frame` (its capture time).
  double TimeOf(std::size_t frame) const noexcept {
    return open_seconds + double(frame) / fps;
  }
};

}  // namespace sieve::query
