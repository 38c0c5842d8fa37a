// Cross-session batched cloud inference: the cloud tier's one inference path.
//
// Many camera sessions deliver cut-point activations (stills decode to the
// split-0 activation) to one cloud; running each through ForwardSuffix alone
// re-streams the suffix weights through cache per frame. The InferenceBatcher
// instead collects every delivered activation in one submit-order FIFO, runs
// ONE FrameClassifier::PredictBatch pass per flush over samples that share a
// (split point, inference precision) key, and routes every prediction back
// to its session through a per-sample completion callback. Precision is part
// of the key so a fleet mixing int8 and fp32 sessions never cross-batches:
// each sample rides a pass at exactly the precision its session asked for.
//
// Flushing is work-conserving: whenever a flusher is free and a sample can
// go, it flushes at once; the oldest such sample picks the key. Samples that
// arrive during a pass form the next batch, so batches grow only while the
// flushers are busy and an idle fleet never waits for a batch to fill.
//
// The batch is invisible to correctness: PredictBatch is bit-exact per
// sample vs the per-frame path (see Layer::ForwardBatch), so a camera's
// database is identical whether its frames rode batches or not. Submit
// blocks when the pending window is full (backpressure into the pipeline's
// serial sink, exactly like a bounded queue). A camera's samples only ever
// ride one batch at a time, and each batch takes a prefix of that camera's
// pending samples, so per-camera callback order is submit order for any
// number of flushers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "fleet/scheduler.h"
#include "nn/classifier.h"
#include "nn/precision.h"
#include "runtime/executor.h"
#include "synth/labels.h"

namespace sieve::fleet {

/// Aggregate counters of one batcher (cheap snapshot, any thread).
struct BatcherStats {
  std::uint64_t submitted = 0;        ///< samples accepted by Submit
  std::uint64_t batches = 0;          ///< PredictBatch flushes run
  std::uint64_t samples = 0;          ///< samples across all flushes
  std::uint64_t size_flushes = 0;     ///< flushes that took batch_max samples
  std::size_t peak_pending = 0;       ///< max samples ever queued at once
  std::size_t max_batch = 0;          ///< largest single flush

  /// Mean batch occupancy (samples per flush) — the amortization factor.
  double occupancy_avg() const noexcept {
    return batches > 0 ? double(samples) / double(batches) : 0.0;
  }
};

/// Collects activations from many sessions and serves them in batches.
/// Thread-safe: any number of submitters; `flushers` internal workers run
/// the batched passes and the completion callbacks.
class InferenceBatcher {
 public:
  /// Called on a flusher thread with the sample's prediction (or the error
  /// that killed its batch slot) and the size of the batch it rode in.
  using DoneFn =
      std::function<void(Expected<synth::LabelSet>, std::size_t batch_size)>;

  /// `pending_capacity` bounds queued samples across all keys (backpressure
  /// window); 0 sizes it to 4 * batch_max. `flushers` (at least 1) batched
  /// passes may run at once, over disjoint cameras. The classifier must
  /// outlive the batcher and be fitted before the first flush.
  InferenceBatcher(const nn::FrameClassifier& classifier,
                   runtime::Executor& executor, FleetSchedulerPolicy policy,
                   std::size_t pending_capacity = 0, std::size_t flushers = 1);
  /// Flushes pending work, then stops the flushers.
  ~InferenceBatcher();

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  /// Queue one activation for the batched suffix pass at `split`, run at
  /// `precision` (samples only ever batch with others at the same split AND
  /// precision). `camera` is the fairness key (one value per session).
  /// Blocks while the pending window is full. An activation whose shape
  /// does not match the network's ShapeAtLayer(split) is rejected
  /// immediately: `done` fires on the calling thread with the error and
  /// batch_size 0.
  void Submit(std::uint64_t camera, std::size_t split, nn::Tensor activation,
              nn::Precision precision, DoneFn done);

  /// Block until every queued and in-flight sample has completed (its
  /// callback returned). Callers must stop submitting first (the runtime
  /// drains the pipeline, then the batcher).
  void Drain();

  /// Block until every sample `camera` has submitted so far has completed,
  /// so work the caller does next for that camera lands after them.
  void AwaitCamera(std::uint64_t camera);

  BatcherStats stats() const;
  const FleetScheduler& scheduler() const noexcept { return scheduler_; }

 private:
  struct Item {
    nn::Tensor activation;
    std::uint64_t camera = 0;
    /// Every sample in a batch shares the split (shape compatibility) and
    /// the precision (one PredictBatch mode per pass).
    std::size_t split = 0;
    nn::Precision precision = nn::Precision::kFp32;
    DoneFn done;
  };

  void FlusherLoop();
  /// Move the next batch out of pending_ (empty when no pending sample may
  /// go yet) and mark its cameras in flight. Caller holds mutex_.
  std::vector<Item> TakeBatchLocked();

  const nn::FrameClassifier& classifier_;
  const FleetScheduler scheduler_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes the flushers
  std::condition_variable space_cv_;  ///< wakes blocked submitters
  std::condition_variable idle_cv_;   ///< wakes Drain and AwaitCamera
  std::vector<Item> pending_;  ///< every key, in submit order
  /// Cameras with samples inside a running flush (each in exactly one).
  std::unordered_set<std::uint64_t> in_flight_cameras_;
  bool stop_ = false;
  BatcherStats stats_;

  /// Last member: the flushers join before the state they use tears down.
  std::vector<std::thread> flushers_;
};

}  // namespace sieve::fleet
