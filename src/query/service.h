// QueryService: the live cross-camera query API over the shared runtime.
//
// The paper's output contract — "when did object X appear?" answered with
// seek-back frame ranges, no re-decoding — held per camera and only after
// Drain(). QueryService lifts it to the fleet, live: the runtime publishes
// every per-session ResultsDatabase insert here while sessions stream, and
// operators ask
//
//   auto& q = runtime.query();
//   q.FindObject(kCar, t0, t1);   // time-aligned hits on every camera
//   q.WhereIs(kPerson);           // cameras seeing a person right now
//   q.Subscribe(kTruck, on_event);  // standing query: enter/exit pushes
//
// Consistency model (see query/index.h for the mechanism): reads are
// wait-free walks of immutable per-camera records — never blocking ingest,
// never torn, and always a prefix-consistent view of every camera's
// insert stream (per camera; the sharded index takes each camera's point
// independently, trading the old cross-camera point-in-time atomicity for
// O(1) publication). Once a session drains, its hits are bit-exactly its
// drained database's FindObject(cls, frames_pushed) ranges mapped through
// the shared clock.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/results_db.h"
#include "obs/metrics.h"
#include "query/clock.h"
#include "query/index.h"
#include "query/subscriptions.h"
#include "synth/labels.h"

namespace sieve::query {

/// One camera's appearance interval for a queried class, time-aligned on
/// the shared stream clock. Frame endpoints are session-local; second
/// endpoints come from CameraClock::TimeOf. A hit whose event is still on
/// screen has open == true, end_frame == kOpenEnd, and end_seconds == +inf.
struct QueryHit {
  std::string camera_id;
  std::size_t begin_frame = 0;
  std::size_t end_frame = kOpenEnd;
  double begin_seconds = 0.0;
  double end_seconds = std::numeric_limits<double>::infinity();
  bool open = false;
};

class QueryService {
 public:
  using SubscriptionId = SubscriptionRegistry::Id;

  /// `registry` (optional) receives the query.* metrics — currently
  /// "query.rebuilds", counting the index's out-of-order rebuild fallback
  /// (each also traced as a "query/rebuild" instant). The runtime passes
  /// its per-runtime registry; a null registry falls back to the
  /// process-global one so standalone services are observable too.
  explicit QueryService(std::shared_ptr<obs::Registry> registry = nullptr)
      : registry_(std::move(registry)),
        index_(registry_ ? registry_->GetCounter("query.rebuilds")
                         : obs::Registry::Global().GetCounter(
                               "query.rebuilds")) {}

  static constexpr double kBeginningOfTime =
      -std::numeric_limits<double>::infinity();
  static constexpr double kEndOfTime =
      std::numeric_limits<double>::infinity();

  // --- Ingest side ---------------------------------------------------------
  // The publication path, owned by whichever producer feeds this service.
  // For a runtime-owned service (Runtime::query()) that producer is the
  // runtime: do NOT call these on it yourself — an operator-issued Seal or
  // Publish desynchronizes the index from the session databases and breaks
  // the drained-equivalence contract (Seal is first-writer-wins). They are
  // public for standalone producers: tests, replay tools, non-runtime feeds.

  /// Announce a camera incarnation (unique `route`, display `camera_id`)
  /// and its position on the shared stream clock. A clock that is not
  /// Valid() is not indexed (see QueryIndex::RegisterCamera).
  void RegisterCamera(const std::string& route, std::string camera_id,
                      CameraClock clock);

  /// Publication path for one ResultsDatabase insert: fold it into the
  /// index, then fire matching standing queries. Wired to the session db's
  /// observer seam; runs on the cloud tier's thread under the session's
  /// database lock.
  void Publish(const std::string& route, const core::ResultsDatabase& db,
               std::size_t frame, const synth::LabelSet& labels);

  /// The camera's stream ended after `total_frames` frames: close its open
  /// intervals (firing exit events) and stop counting it as live.
  void Seal(const std::string& route, std::size_t total_frames);

  // --- Read side (any thread, any time) -----------------------------------

  /// Every appearance interval of `cls`, on every camera, whose shared-clock
  /// interval overlaps [t0, t1). Hits are whole events (endpoints are not
  /// clipped to the window) ordered by (begin_seconds, camera, begin_frame).
  /// Costs O(cameras + chunks newer than the window + hits), not the
  /// history's length (docs/queries.md, "Read path and cost").
  std::vector<QueryHit> FindObject(synth::ObjectClass cls,
                                   double t0 = kBeginningOfTime,
                                   double t1 = kEndOfTime) const;

  /// Camera ids with `cls` on screen right now: their latest interval for
  /// the class is still open and their stream has not been sealed. Sorted,
  /// deduplicated.
  std::vector<std::string> WhereIs(synth::ObjectClass cls) const;

  /// The current consistent snapshot (see IndexSnapshot).
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    return index_.snapshot();
  }

  /// Monotonic index version; bumps on every *effective* update (a
  /// register of a new route, a publish, a first seal — idempotent
  /// re-seals and duplicate registers publish nothing).
  std::uint64_t version() const { return index_.version(); }

  // --- Standing queries ----------------------------------------------------

  /// Fire `callback` on every future enter/exit of `cls` on any camera.
  /// Delivery contract: SubscriptionRegistry (runtime thread, in order,
  /// must not block on the producing session).
  SubscriptionId Subscribe(synth::ObjectClass cls,
                           SubscriptionRegistry::Callback callback);
  void Unsubscribe(SubscriptionId id);

 private:
  /// Keepalive for the counter handle (declared before index_ on purpose).
  std::shared_ptr<obs::Registry> registry_;
  QueryIndex index_;
  SubscriptionRegistry subscriptions_;
};

}  // namespace sieve::query
