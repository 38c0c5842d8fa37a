// Low-overhead trace recorder: per-thread ring buffers of spans/instants
// stamped on a monotonic clock.
//
// The recorder is compiled in but disabled by default. Every record path
// begins with TracingEnabled() — a single relaxed atomic load and one
// branch — so the cost when tracing is off is indistinguishable from a
// compiled-out probe (the <2% overhead contract in docs/observability.md is
// measured with tracing ON; off is free). When tracing is on, each thread
// appends into its own fixed-capacity ring buffer guarded by a per-ring
// mutex that only that thread and a snapshotting reader ever touch, so the
// hot path is an uncontended lock (~tens of ns) and concurrent
// SnapshotTrace() is race-free under TSan by construction. A full ring
// wraps, overwriting the oldest events and counting the overwritten ones,
// so a runaway session degrades to "recent history" rather than OOM.
//
// TraceContext is the per-frame identity — (track, frame) where track is a
// hash of the session route ("cam#seq") — stamped once into the frame's
// dataflow::FlowFile envelope and carried through every stage with it, so
// one frame's events across N threads join into one causally-linked tree in
// the Chrome trace export (obs/export.h).
//
// Event names must outlive the trace: pass string literals, or intern
// dynamic strings with InternName() (stage names, camera ids).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sieve::obs {

/// Per-frame identity carried through the dataflow. track == 0 means "no
/// frame context" (control messages, untracked flows); exporters still emit
/// such events but cannot join them into a frame tree.
struct TraceContext {
  std::uint64_t track = 0;  ///< hash of the session route, never 0 for frames
  std::uint64_t frame = 0;  ///< frame index within the session
};

/// One recorded event. POD; `name`/arg-name pointers must be literals or
/// interned (InternName).
struct TraceEvent {
  const char* name = nullptr;
  char phase = 'X';  ///< 'X' complete span, 'i' instant
  std::uint64_t track = 0;
  std::uint64_t frame = 0;
  std::uint64_t ts_us = 0;   ///< start, microseconds since the trace epoch
  std::uint64_t dur_us = 0;  ///< span duration ('X' only)
  const char* a0_name = nullptr;  ///< optional numeric args for the export
  std::uint64_t a0 = 0;
  const char* a1_name = nullptr;
  std::uint64_t a1 = 0;
};

/// One thread's unrolled ring at snapshot time, oldest event first.
struct ThreadTrace {
  std::uint32_t tid = 0;
  std::string thread_name;
  std::uint64_t dropped = 0;  ///< events overwritten by ring wraparound
  std::vector<TraceEvent> events;
};

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// The single-branch fast path. Inline so a disabled probe costs one
/// relaxed load.
inline bool TracingEnabled() noexcept {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Enable recording. Resets every existing ring (epoch, counters) and
/// (re)sizes rings to `events_per_thread`. Idempotent-safe: calling while
/// enabled restarts the trace.
void StartTracing(std::size_t events_per_thread = 16384);
/// Disable recording. Recorded events stay snapshot-able until the next
/// StartTracing().
void StopTracing();

/// Unroll every thread's ring (concurrent recording is safe; each ring is
/// locked only long enough to copy it). Events within a ThreadTrace are in
/// timestamp order.
std::vector<ThreadTrace> SnapshotTrace();

/// Microseconds since the trace epoch (the last StartTracing, or process
/// start before the first one). Monotonic.
std::uint64_t NowMicros() noexcept;

/// Record an instant event ('i').
void RecordInstant(const char* name, TraceContext ctx,
                   const char* a0_name = nullptr, std::uint64_t a0 = 0,
                   const char* a1_name = nullptr, std::uint64_t a1 = 0);
/// Record a complete span ('X') from explicit start/end stamps (NowMicros).
void RecordSpan(const char* name, TraceContext ctx, std::uint64_t start_us,
                std::uint64_t end_us, const char* a0_name = nullptr,
                std::uint64_t a0 = 0, const char* a1_name = nullptr,
                std::uint64_t a1 = 0);

/// RAII span: stamps start at construction, records at End()/destruction.
/// Construction when tracing is disabled is a no-op (one branch).
class TraceSpan {
 public:
  TraceSpan(const char* name, TraceContext ctx) {
    if (TracingEnabled()) {
      active_ = true;
      name_ = name;
      ctx_ = ctx;
      start_us_ = NowMicros();
    }
  }
  ~TraceSpan() { End(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric arg emitted with the span (two slots).
  void Arg(const char* name, std::uint64_t value) noexcept {
    if (!active_) return;
    if (a0_name_ == nullptr) {
      a0_name_ = name;
      a0_ = value;
    } else {
      a1_name_ = name;
      a1_ = value;
    }
  }

  /// Record the span now; further End() calls are no-ops.
  void End() {
    if (!active_) return;
    active_ = false;
    RecordSpan(name_, ctx_, start_us_, NowMicros(), a0_name_, a0_, a1_name_,
               a1_);
  }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  TraceContext ctx_;
  std::uint64_t start_us_ = 0;
  const char* a0_name_ = nullptr;
  std::uint64_t a0_ = 0;
  const char* a1_name_ = nullptr;
  std::uint64_t a1_ = 0;
};

/// Intern a dynamic string so its c_str() outlives every trace (stage
/// names, camera routes). Returns a stable pointer; repeated calls with the
/// same string return the same pointer.
const char* InternName(const std::string& name);

/// FNV-1a hash of a session route for TraceContext::track; never returns 0.
std::uint64_t HashTrack(const std::string& route) noexcept;
/// Register a human-readable name for a track so exporters can label it.
void NameTrack(std::uint64_t track, const std::string& name);
/// Look up a track's registered name ("" if unknown).
std::string TrackName(std::uint64_t track);

/// Name the calling thread in trace exports ("wan-worker", "flusher").
/// Sticky across StartTracing().
void SetThreadName(const std::string& name);

}  // namespace sieve::obs
