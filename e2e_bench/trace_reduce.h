// Reduces an obs::SnapshotTrace() into per-layer numbers: per-stage self
// (service) time, queue wait between consecutive stage spans of one frame,
// batcher wait, WAN send time, db insert, encode passes, and a per-frame
// push-to-settle breakdown whose parts are checked against the total.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2e {

/// Span the benchmark records around each Push call (the frame's track and
/// frame id), so a delivered frame's timeline starts where the camera
/// handed it over.
inline constexpr const char* kPushSpan = "bench/push";

/// Pipeline stage names in order, as the issue and metrics name them
/// (the trace spells them "stage/edge/iframe-seeker", ...).
const std::vector<std::string>& StageMetricNames();

struct TraceReduction {
  /// Per-layer metric name -> value (milliseconds unless named otherwise).
  std::map<std::string, double> metrics;
  std::size_t delivered_frames = 0;  ///< frames with a complete timeline
};

/// `frame_limit` maps each live session's trace track to the number of
/// frames it pushed in the fixed-rate phase: only those frames are reduced,
/// so the parts explain the latency event_p50_ms measures. Spans on other
/// tracks (recovery replay, batch flushes) are not per-frame.
TraceReduction ReduceTrace(
    const std::vector<sieve::obs::ThreadTrace>& trace,
    const std::map<std::uint64_t, std::uint64_t>& frame_limit);

}  // namespace e2e
