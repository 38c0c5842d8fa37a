#include "query/index.h"

#include <utility>

#include "obs/trace.h"

namespace sieve::query {

namespace {

QueryEvent MakeEvent(QueryEvent::Kind kind, const CameraRecord& record,
                     synth::ObjectClass cls, std::size_t frame) {
  QueryEvent event;
  event.kind = kind;
  event.camera_id = record.camera_id;
  event.cls = cls;
  event.frame = frame;
  event.seconds = record.clock.TimeOf(frame);
  return event;
}

}  // namespace

void QueryIndex::RegisterCamera(const std::string& route,
                                std::string camera_id, CameraClock clock) {
  if (!clock.Valid()) return;  // see the precondition in index.h
  std::lock_guard<std::mutex> lock(register_mutex_);
  const auto dir = directory_.load(std::memory_order_acquire);
  if (dir->contains(route)) return;

  auto record = std::make_shared<CameraRecord>();
  record->camera_id = std::move(camera_id);
  record->clock = clock;
  auto shard = std::make_shared<CameraShard>();
  shard->record.store(std::move(record), std::memory_order_release);

  // Registration is the only directory clone — O(#cameras), but it happens
  // once per session, not per insert.
  auto next = std::make_shared<Directory>(*dir);
  (*next)[route] = std::move(shard);
  directory_.store(std::shared_ptr<const Directory>(std::move(next)),
                   std::memory_order_release);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<QueryEvent> QueryIndex::Apply(const std::string& route,
                                          const core::ResultsDatabase& db,
                                          std::size_t frame,
                                          const synth::LabelSet& labels) {
  const auto dir = directory_.load(std::memory_order_acquire);
  const auto it = dir->find(route);
  if (it == dir->end()) return {};  // unregistered: drop
  CameraShard& shard = *it->second;

  std::lock_guard<std::mutex> lock(shard.mu);
  const auto base = shard.record.load(std::memory_order_acquire);
  // O(1) clone: chains share their frozen chunks with `base`.
  auto record = std::make_shared<CameraRecord>(*base);
  std::vector<QueryEvent> events;
  if (!record->has_rows || frame > record->last_frame) {
    // In-order insert: one incremental step of FindObject's run scan.
    for (int c = 0; c < synth::kNumObjectClasses; ++c) {
      const auto cls = synth::ObjectClass(c);
      auto& runs = record->intervals[std::size_t(c)];
      const bool open = runs.has_open();
      if (labels.Contains(cls) && !open) {
        runs.push_back(FrameInterval{frame, kOpenEnd});
        events.push_back(MakeEvent(QueryEvent::Kind::kEnter, *record, cls,
                                   frame));
      } else if (!labels.Contains(cls) && open) {
        runs.close_back(frame);
        events.push_back(MakeEvent(QueryEvent::Kind::kExit, *record, cls,
                                   frame));
      }
    }
    record->last_frame = frame;
    record->current = labels;
  } else {
    // Out-of-order or overwriting insert: the incremental invariants no
    // longer hold, so rebuild this camera from the authoritative database
    // (stable for this call: the observer runs under the db's lock).
    // Events are the per-class liveness transitions the rebuild caused.
    // Rebuilds are O(history) — surfaced through the counter and trace
    // instant so recovery-heavy runs are visible (docs/observability.md).
    if (rebuilds_ != nullptr) rebuilds_->Add();
    obs::RecordInstant("query/rebuild",
                       obs::TraceContext{obs::HashTrack(route), frame});
    for (int c = 0; c < synth::kNumObjectClasses; ++c) {
      const auto cls = synth::ObjectClass(c);
      auto& runs = record->intervals[std::size_t(c)];
      const bool was_open = runs.has_open();
      runs = IntervalChain::FromRuns(core::ClassIntervals(db.rows(), cls));
      const bool now_open = runs.has_open();
      if (now_open != was_open) {
        events.push_back(MakeEvent(now_open ? QueryEvent::Kind::kEnter
                                            : QueryEvent::Kind::kExit,
                                   *record, cls, frame));
      }
    }
    record->last_frame = db.rows().rbegin()->first;
    record->current = db.rows().rbegin()->second;
  }
  record->has_rows = true;
  ++record->inserts;
  shard.record.store(std::shared_ptr<const CameraRecord>(std::move(record)),
                     std::memory_order_release);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return events;
}

std::vector<QueryEvent> QueryIndex::Seal(const std::string& route,
                                         std::size_t total_frames) {
  const auto dir = directory_.load(std::memory_order_acquire);
  const auto it = dir->find(route);
  if (it == dir->end()) return {};
  CameraShard& shard = *it->second;

  std::lock_guard<std::mutex> lock(shard.mu);
  const auto base = shard.record.load(std::memory_order_acquire);
  if (base->sealed) return {};  // first writer won

  auto record = std::make_shared<CameraRecord>(*base);
  record->sealed = true;
  record->total_frames = total_frames;
  std::vector<QueryEvent> events;
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    auto& runs = record->intervals[std::size_t(c)];
    if (!runs.has_open()) continue;
    // Same closing rule as FindObject(cls, total_frames): a live event ends
    // with the stream; one opening exactly at the end never happened.
    if (runs.back().begin < total_frames) {
      runs.close_back(total_frames);
      events.push_back(MakeEvent(QueryEvent::Kind::kExit, *record,
                                 synth::ObjectClass(c), total_frames));
    } else {
      runs.pop_back();
    }
  }
  shard.record.store(std::shared_ptr<const CameraRecord>(std::move(record)),
                     std::memory_order_release);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return events;
}

std::shared_ptr<const IndexSnapshot> QueryIndex::snapshot() const {
  // Version first: the materialized view contains at least everything the
  // stamped version covers, so successive snapshots stay monotonic.
  auto snap = std::make_shared<IndexSnapshot>();
  snap->version = version_.load(std::memory_order_acquire);
  ForEachCamera([&snap](const std::string& route,
                        std::shared_ptr<const CameraRecord> record) {
    snap->cameras.emplace(route, std::move(record));
  });
  return snap;
}

}  // namespace sieve::query
