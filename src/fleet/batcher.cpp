#include "fleet/batcher.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"

namespace sieve::fleet {

InferenceBatcher::InferenceBatcher(const nn::FrameClassifier& classifier,
                                   runtime::Executor& executor,
                                   FleetSchedulerPolicy policy,
                                   std::size_t pending_capacity,
                                   std::size_t flushers)
    : classifier_(classifier),
      scheduler_(policy),
      capacity_(pending_capacity != 0
                    ? pending_capacity
                    : std::max<std::size_t>(
                          4 * scheduler_.policy().batch_max, 8)) {
  for (std::size_t i = 0; i < std::max<std::size_t>(flushers, 1); ++i) {
    flushers_.push_back(executor.SpawnWorker([this] { FlusherLoop(); }));
  }
}

InferenceBatcher::~InferenceBatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& flusher : flushers_) flusher.join();
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
                   [this] { return stop_ || pending_.size() < capacity_; });
    if (stop_) {
      lock.unlock();
      done(Status::Cancelled("batcher: stopped"), 0);
      return;
    }
    pending_.push_back(
        Item{std::move(activation), camera, split, precision, std::move(done)});
    ++stats_.submitted;
    stats_.peak_pending = std::max(stats_.peak_pending, pending_.size());
  }
  work_cv_.notify_one();
}

void InferenceBatcher::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.empty() && in_flight_cameras_.empty();
  });
}

void InferenceBatcher::AwaitCamera(std::uint64_t camera) {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return in_flight_cameras_.count(camera) == 0 &&
           std::none_of(pending_.begin(), pending_.end(),
                        [&](const Item& item) { return item.camera == camera; });
  });
}

std::vector<InferenceBatcher::Item> InferenceBatcher::TakeBatchLocked() {
  // --- One scan: pick the key, collect the samples free to ride it --------
  // A camera sits this flush out once it has a sample in flight (another
  // flusher holds its earlier frames) or an older pending sample under
  // another key; either way its candidates stay a prefix of its pending
  // samples, so no flush can overtake one of its earlier frames.
  std::unordered_set<std::uint64_t> blocked = in_flight_cameras_;
  const Item* head = nullptr;  // the oldest sample that may go: its key
  std::vector<std::size_t> candidates;
  std::vector<std::uint64_t> cameras;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Item& item = pending_[i];
    if (blocked.count(item.camera) != 0) continue;
    if (head == nullptr) {
      head = &item;
    } else if (item.split != head->split || item.precision != head->precision) {
      blocked.insert(item.camera);
      continue;
    }
    candidates.push_back(i);
    cameras.push_back(item.camera);
  }
  std::vector<Item> batch;
  if (candidates.empty()) return batch;

  // --- Fairness-planned prefix of the candidates, out of the FIFO ---------
  std::vector<bool> take(pending_.size(), false);
  for (const std::size_t c : scheduler_.PlanBatch(cameras)) {
    take[candidates[c]] = true;
  }
  std::vector<Item> rest;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    (take[i] ? batch : rest).push_back(std::move(pending_[i]));
  }
  pending_.swap(rest);

  const std::size_t n = batch.size();
  for (const Item& item : batch) in_flight_cameras_.insert(item.camera);
  ++stats_.batches;
  stats_.samples += n;
  stats_.max_batch = std::max(stats_.max_batch, n);
  if (n >= scheduler_.policy().batch_max) ++stats_.size_flushes;
  return batch;
}

void InferenceBatcher::FlusherLoop() {
  obs::SetThreadName("batch/flusher");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::vector<Item> batch = TakeBatchLocked();
    if (batch.empty()) {
      if (stop_ && pending_.empty()) return;  // stopped, nothing left here
      // Woken by a submit or by a finished flush freeing its cameras.
      work_cv_.wait(lock);
      continue;
    }
    const std::size_t n = batch.size();

    // --- Run the batched pass and route predictions back -------------------
    // What this batch left behind may be free for an idle flusher.
    if (!pending_.empty()) work_cv_.notify_one();
    lock.unlock();
    space_cv_.notify_all();
    std::vector<nn::Tensor> activations;
    activations.reserve(n);
    for (Item& item : batch) activations.push_back(std::move(item.activation));
    // The flush span covers the batched pass itself; per-sample callbacks
    // (db inserts) trace on each frame's own track from inside `done`.
    obs::TraceSpan flush_span("batch/flush", obs::TraceContext{});
    flush_span.Arg("batch_size", n);
    flush_span.Arg("split", batch.front().split);
    std::vector<Expected<synth::LabelSet>> predictions =
        classifier_.PredictBatch(std::move(activations), batch.front().split,
                                 batch.front().precision);
    flush_span.End();
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].done(std::move(predictions[i]), n);
    }
    lock.lock();
    for (const Item& item : batch) in_flight_cameras_.erase(item.camera);
    idle_cv_.notify_all();  // these cameras' samples have all completed
    // The cameras just freed may unblock samples another flusher passed over.
    if (!pending_.empty()) work_cv_.notify_all();
  }
}

BatcherStats InferenceBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sieve::fleet
