#include "query/service.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace sieve::query {

void QueryService::RegisterCamera(const std::string& route,
                                  std::string camera_id, CameraClock clock) {
  index_.RegisterCamera(route, std::move(camera_id), clock);
}

void QueryService::Publish(const std::string& route,
                           const core::ResultsDatabase& db, std::size_t frame,
                           const synth::LabelSet& labels) {
  subscriptions_.Notify(index_.Apply(route, db, frame, labels));
}

void QueryService::Seal(const std::string& route, std::size_t total_frames) {
  subscriptions_.Notify(index_.Seal(route, total_frames));
}

std::vector<QueryHit> QueryService::FindObject(synth::ObjectClass cls,
                                               double t0, double t1) const {
  std::vector<QueryHit> hits;
  index_.ForEachCamera([&](const std::string&,
                           const std::shared_ptr<const CameraRecord>& cam) {
    const std::size_t first = hits.size();
    // Overlap with the half-open window is tested before a hit is built,
    // and only runs near the window are visited. The hit itself stays the
    // whole event: seek-back wants the full range, and unclipped endpoints
    // keep drained hits bit-exact vs. FindObject.
    cam->intervals[std::size_t(std::uint8_t(cls))].ForEachOverlapping(
        cam->clock, t0, t1,
        [&](const FrameInterval& run, double begin_seconds,
            double end_seconds) {
          hits.push_back(QueryHit{cam->camera_id, run.begin, run.end,
                                  begin_seconds, end_seconds,
                                  run.end == kOpenEnd});
        });
    // The walk runs newest first. Restore oldest-first so the sort sees
    // the sequence a full scan would: it decides the order of equal keys
    // (two incarnations of one id on clocks that coincide).
    std::reverse(hits.begin() + std::ptrdiff_t(first), hits.end());
  });
  std::sort(hits.begin(), hits.end(),
            [](const QueryHit& a, const QueryHit& b) {
              return std::tie(a.begin_seconds, a.camera_id, a.begin_frame) <
                     std::tie(b.begin_seconds, b.camera_id, b.begin_frame);
            });
  return hits;
}

std::vector<std::string> QueryService::WhereIs(synth::ObjectClass cls) const {
  std::vector<std::string> cameras;
  index_.ForEachCamera([&](const std::string&,
                           const std::shared_ptr<const CameraRecord>& cam) {
    // `current` is the latest analyzed frame's labels; for a live camera
    // it contains cls exactly when the class's last interval is open.
    if (!cam->sealed && cam->current.Contains(cls)) {
      cameras.push_back(cam->camera_id);
    }
  });
  std::sort(cameras.begin(), cameras.end());
  cameras.erase(std::unique(cameras.begin(), cameras.end()), cameras.end());
  return cameras;
}

QueryService::SubscriptionId QueryService::Subscribe(
    synth::ObjectClass cls, SubscriptionRegistry::Callback callback) {
  return subscriptions_.Subscribe(cls, std::move(callback));
}

void QueryService::Unsubscribe(SubscriptionId id) {
  subscriptions_.Unsubscribe(id);
}

}  // namespace sieve::query
