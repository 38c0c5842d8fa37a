#include "fleet/batcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace sieve::fleet {

InferenceBatcher::InferenceBatcher(const nn::FrameClassifier& classifier,
                                   runtime::Executor& executor,
                                   FleetSchedulerPolicy policy,
                                   std::size_t pending_capacity)
    : classifier_(classifier),
      scheduler_(policy),
      capacity_(pending_capacity != 0
                    ? pending_capacity
                    : std::max<std::size_t>(
                          4 * scheduler_.policy().batch_max, 8)) {
  flusher_ = executor.SpawnWorker([this] { FlusherLoop(); });
}

InferenceBatcher::~InferenceBatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void InferenceBatcher::Submit(std::uint64_t camera, std::size_t split,
                              nn::Tensor activation, nn::Precision precision,
                              DoneFn done) {
  const nn::Network& net = classifier_.network();
  if (split > net.LayerCount() ||
      !(activation.shape() == net.ShapeAtLayer(split))) {
    done(Status::Invalid("batcher: activation shape does not match split"), 0);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock,
                   [this] { return stop_ || pending_total_ < capacity_; });
    if (stop_) {
      lock.unlock();
      done(Status::Cancelled("batcher: stopped"), 0);
      return;
    }
    pending_[BatchKey{split, precision}].push_back(
        Item{std::move(activation), camera, next_seq_++, std::move(done)});
    ++pending_total_;
    ++stats_.submitted;
    stats_.peak_pending = std::max(stats_.peak_pending, pending_total_);
  }
  work_cv_.notify_all();
}

void InferenceBatcher::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock,
                [this] { return pending_total_ == 0 && in_flight_ == 0; });
}

void InferenceBatcher::FlusherLoop() {
  obs::SetThreadName("batch/flusher");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || pending_total_ > 0; });
    if (pending_total_ == 0) return;  // stopped, nothing left to serve

    // --- Pick the key whose oldest sample is oldest ------------------------
    // Every key is due the moment the flusher is free, so map order would
    // starve the higher keys under sustained load; the submit sequence
    // serves keys in arrival order of their heads instead.
    auto oldest = pending_.begin();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second.front().seq < oldest->second.front().seq) oldest = it;
    }
    const BatchKey flush_key = oldest->first;

    // --- Extract the batch (fairness-planned FIFO prefix) ------------------
    std::deque<Item>& queue = oldest->second;
    std::vector<std::uint64_t> cameras;
    cameras.reserve(queue.size());
    for (const Item& item : queue) cameras.push_back(item.camera);
    const std::vector<std::size_t> plan = scheduler_.PlanBatch(cameras);
    std::vector<Item> batch;
    batch.reserve(plan.size());
    // `plan` is ascending, so erasing back-to-front keeps earlier indices
    // valid; reverse the extraction order afterwards.
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      batch.push_back(std::move(queue[*it]));
      queue.erase(queue.begin() + std::ptrdiff_t(*it));
    }
    std::reverse(batch.begin(), batch.end());
    if (queue.empty()) pending_.erase(oldest);
    const std::size_t n = batch.size();
    pending_total_ -= n;
    in_flight_ = n;
    ++stats_.batches;
    stats_.samples += n;
    stats_.max_batch = std::max(stats_.max_batch, n);
    if (n >= scheduler_.policy().batch_max) ++stats_.size_flushes;

    // --- Run the batched pass and route predictions back -------------------
    lock.unlock();
    space_cv_.notify_all();
    std::vector<nn::Tensor> activations;
    activations.reserve(n);
    for (Item& item : batch) activations.push_back(std::move(item.activation));
    // The flush span covers the batched pass itself; per-sample callbacks
    // (db inserts) trace on each frame's own track from inside `done`.
    obs::TraceSpan flush_span("batch/flush", obs::TraceContext{});
    flush_span.Arg("batch_size", n);
    flush_span.Arg("split", flush_key.first);
    std::vector<Expected<synth::LabelSet>> predictions =
        classifier_.PredictBatch(std::move(activations), flush_key.first,
                                 flush_key.second);
    flush_span.End();
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].done(std::move(predictions[i]), n);
    }
    lock.lock();
    in_flight_ = 0;
    if (pending_total_ == 0) idle_cv_.notify_all();
  }
}

BatcherStats InferenceBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sieve::fleet
