// Fleet-tier batching policy: how large a batch may grow, and whose samples
// ride in it. When to flush is not a knob: both consumers flush whenever
// their server is free (work-conserving), so batches grow only under load.
//
// The policy is deliberately pure — no clocks, no threads, no tensors — so
// the exact same object drives both the real InferenceBatcher and the
// discrete-event queue-network model (sim/queue_network's batch stations).
// That is what lets a candidate policy be validated at 10k-camera scale in
// virtual time before the live runtime ever hosts it (docs/fleet.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sieve::fleet {

/// Knobs of the fleet batching tier.
struct FleetSchedulerPolicy {
  /// At most this many samples per flush. 1 disables batching (every
  /// sample is its own flush).
  std::size_t batch_max = 16;
  /// Fairness cap: at most this many samples from one camera per batch
  /// (0 = uncapped). Keeps a single hot camera from monopolizing every
  /// flush while other cameras' frames queue behind it.
  std::size_t fairness_share = 0;
};

/// Pure flush-planning over a FleetSchedulerPolicy.
class FleetScheduler {
 public:
  explicit FleetScheduler(FleetSchedulerPolicy policy = {});

  const FleetSchedulerPolicy& policy() const noexcept { return policy_; }

  /// Compose the next batch from a FIFO of pending samples, identified by
  /// their camera keys in arrival order. Returns the chosen indices,
  /// ascending: the FIFO prefix, except that once a camera already holds
  /// fairness_share slots its later samples are passed over (they stay
  /// queued, still in per-camera order, for the next flush). At most
  /// batch_max indices.
  std::vector<std::size_t> PlanBatch(
      const std::vector<std::uint64_t>& pending_cameras) const;

 private:
  FleetSchedulerPolicy policy_;
};

}  // namespace sieve::fleet
