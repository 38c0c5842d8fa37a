// Cross-session batched cloud inference: the fleet tier's fan-in point.
//
// Many camera sessions deliver cut-point activations (stills decode to the
// split-0 activation) to one cloud; running each through ForwardSuffix alone
// re-streams the suffix weights through cache per frame. The InferenceBatcher
// instead collects delivered activations keyed by (split point, inference
// precision), runs ONE FrameClassifier::PredictBatch pass per flush, and
// routes every prediction back to its session through a per-sample
// completion callback. Precision is part of the key so a fleet mixing int8
// and fp32 sessions never cross-batches: each sample rides a pass at exactly
// the precision its session asked for.
//
// Flushing is work-conserving: whenever the flusher is free and anything is
// pending, it flushes at once — the key whose oldest sample is oldest, its
// fairness-planned FIFO prefix of up to batch_max samples. Samples that
// arrive during a pass form the next batch, so batches grow only while the
// flusher is busy and an idle fleet never waits for a batch to fill.
//
// The batch is invisible to correctness: PredictBatch is bit-exact per
// sample vs the per-frame path (see Layer::ForwardBatch), so a camera's
// database is identical whether its frames rode batches or not. Submit
// blocks when the pending window is full (backpressure into the pipeline's
// serial sink, exactly like a bounded queue), and a session's samples flush
// in submission order on the one flusher, so per-camera delivery order is
// preserved.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include <utility>

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
/// Thread-safe: any number of submitters; one internal flusher worker runs
/// the batched passes and the completion callbacks.
class InferenceBatcher {
 public:
  /// Called on the flusher thread with the sample's prediction (or the
  /// error that killed its batch slot) and the size of the batch it rode in.
  using DoneFn =
      std::function<void(Expected<synth::LabelSet>, std::size_t batch_size)>;

  /// `pending_capacity` bounds queued samples across all keys (backpressure
  /// window); 0 sizes it to 4 * batch_max. The classifier must outlive the
  /// batcher and be fitted before the first flush.
  InferenceBatcher(const nn::FrameClassifier& classifier,
                   runtime::Executor& executor, FleetSchedulerPolicy policy,
                   std::size_t pending_capacity = 0);
  /// Flushes pending work, then stops the flusher.
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

  BatcherStats stats() const;
  const FleetScheduler& scheduler() const noexcept { return scheduler_; }

 private:
  /// What one flush runs: every sample in a batch shares the split (shape
  /// compatibility) and the precision (one PredictBatch mode per pass).
  using BatchKey = std::pair<std::size_t, nn::Precision>;

  struct Item {
    nn::Tensor activation;
    std::uint64_t camera = 0;
    std::uint64_t seq = 0;  ///< submit order across every key
    DoneFn done;
  };

  void FlusherLoop();

  const nn::FrameClassifier& classifier_;
  const FleetScheduler scheduler_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes the flusher
  std::condition_variable space_cv_;  ///< wakes blocked submitters
  std::condition_variable idle_cv_;   ///< wakes Drain
  /// (split, precision) -> FIFO; a key is erased when its queue empties.
  std::map<BatchKey, std::deque<Item>> pending_;
  std::size_t pending_total_ = 0;
  std::size_t in_flight_ = 0;  ///< samples inside the current flush
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  BatcherStats stats_;

  std::thread flusher_;  ///< last member: joins before state tears down
};

}  // namespace sieve::fleet
