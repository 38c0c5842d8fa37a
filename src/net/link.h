// Network link models and byte accounting.
//
// The evaluation controls the edge->cloud WAN at 30 Mbps; LinkModel captures
// bandwidth + propagation latency and converts byte counts to transfer
// times. ByteMeter accumulates what actually crossed each hop (the Figure 5
// quantities) and, since the transport grew retries, distinguishes goodput
// from retransmissions. RealizedLink additionally *enforces* the model in
// wall-clock time for the live threaded pipeline (sleeping for the
// serialization delay), so small-scale end-to-end runs experience the
// constrained WAN. Its waits are interruptible: Cancel() wakes an
// in-progress Transfer early (shutdown must never block for a modelled
// 20-second outage).
//
// Modelling deviation: each Transfer sleeps its own message's full
// TransferSeconds, independently of any other. Concurrent callers (the
// runtime's wan_parallelism workers) therefore do not share the bandwidth:
// N workers move up to N times `bandwidth_mbps`. On e2e_bench's
// wan_durable workload (6 WAN workers, ~7.2 kB per frame) the fixed-rate
// phase stays under the modelled 30 Mbps (~28 Mbps), but the saturated
// phase pushes ~80 Mbps through it. docs/robustness.md has the numbers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace sieve::net {

/// Bandwidth/latency abstraction of one hop.
struct LinkModel {
  double bandwidth_mbps = 30.0;  ///< payload bandwidth
  double rtt_ms = 20.0;          ///< per-message latency floor

  /// Seconds to move `bytes` across the link (serialization + latency).
  double TransferSeconds(std::size_t bytes) const noexcept {
    const double serialize = double(bytes) * 8.0 / (bandwidth_mbps * 1e6);
    return serialize + rtt_ms / 1e3;
  }

  /// The paper's WAN: 30 Mbps edge->cloud.
  static LinkModel Wan() { return LinkModel{30.0, 20.0}; }
  /// Camera->edge LAN: ample local bandwidth.
  static LinkModel Lan() { return LinkModel{1000.0, 1.0}; }
};

/// Thread-safe byte/message counters for one hop. `bytes`/`messages` count
/// goodput — payloads that were actually delivered. Retransmissions (failed
/// attempts, duplicates) and explicit drops are tracked separately so the
/// Figure-5 accounting can report both what the application received and
/// what the link really carried.
class ByteMeter {
 public:
  void Record(std::size_t bytes) noexcept {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    messages_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Bytes wasted on attempts that did not deliver (retries, duplicates).
  void RecordRetransmit(std::size_t bytes) noexcept {
    retransmit_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    retransmits_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One message explicitly given up on (deadline / retry budget / cancel).
  void RecordDrop() noexcept {
    drops_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A delivery previously counted as goodput turned out corrupt (the
  /// downstream decoder rejected it): move its bytes out of goodput into
  /// the corrupt column. Without this, a delivered-but-unusable payload
  /// inflates the Figure-5 "useful bytes" while the frame itself is counted
  /// dropped — the meters and the frame ledger would disagree.
  void ReclassifyCorrupt(std::size_t bytes) noexcept {
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    corrupt_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    corrupted_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages() const noexcept {
    return messages_.load(std::memory_order_relaxed);
  }
  std::uint64_t retransmit_bytes() const noexcept {
    return retransmit_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t retransmits() const noexcept {
    return retransmits_.load(std::memory_order_relaxed);
  }
  std::uint64_t drops() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  /// Bytes delivered but rejected as corrupt downstream (not goodput).
  std::uint64_t corrupt_bytes() const noexcept {
    return corrupt_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t corrupted() const noexcept {
    return corrupted_.load(std::memory_order_relaxed);
  }
  /// Everything the link carried: goodput + retransmitted + corrupt bytes.
  std::uint64_t total_bytes() const noexcept {
    return bytes() + retransmit_bytes() + corrupt_bytes();
  }
  double gigabytes() const noexcept { return double(bytes()) / 1e9; }
  void Reset() noexcept {
    // Relaxed like every other access: the counters are independent
    // statistics, not synchronization points.
    bytes_.store(0, std::memory_order_relaxed);
    messages_.store(0, std::memory_order_relaxed);
    retransmit_bytes_.store(0, std::memory_order_relaxed);
    retransmits_.store(0, std::memory_order_relaxed);
    drops_.store(0, std::memory_order_relaxed);
    corrupt_bytes_.store(0, std::memory_order_relaxed);
    corrupted_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> retransmit_bytes_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> corrupt_bytes_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

/// A link that really waits: Transfer() blocks the calling thread for the
/// modelled duration (scaled by `time_scale` so tests can compress time)
/// and meters the bytes on completion. Cancel() wakes any in-progress wait
/// and makes all further waits return immediately — Transfer then reports
/// kCancelled and the bytes are not metered (they never finished crossing).
class RealizedLink {
 public:
  explicit RealizedLink(LinkModel model, double time_scale = 1.0)
      : model_(model), time_scale_(time_scale) {}

  /// Blocks for the scaled transfer duration, then meters the bytes. The
  /// modelled (unscaled) seconds are returned through `modelled_seconds`
  /// when non-null, whether or not the wait completed. Returns kCancelled
  /// if Cancel() arrived before or during the wait.
  Status Transfer(std::size_t bytes, double* modelled_seconds = nullptr);

  /// Interruptible wait of `modelled_seconds * time_scale` wall seconds (no
  /// metering) — the transport's backoff sleeps ride the same cancel gate
  /// as transfers. Returns false if cancelled.
  bool WaitScaled(double modelled_seconds);

  /// Wake any in-progress wait and fail all future ones. Sticky; safe from
  /// any thread, any number of times.
  void Cancel();
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  const LinkModel& model() const noexcept { return model_; }
  double time_scale() const noexcept { return time_scale_; }
  ByteMeter& meter() noexcept { return meter_; }
  const ByteMeter& meter() const noexcept { return meter_; }

 private:
  LinkModel model_;
  double time_scale_;
  ByteMeter meter_;
  std::atomic<bool> cancelled_{false};
  std::mutex cancel_mutex_;
  std::condition_variable cancel_cv_;
};

}  // namespace sieve::net
