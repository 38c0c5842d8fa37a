// The live cross-camera inverted index: class -> camera -> interval set.
//
// Ingest side: the runtime publishes every per-session ResultsDatabase
// insert here (through the db's observer seam), and the index folds it into
// the owning camera's per-class interval lists incrementally — the same
// label-propagation semantics as ResultsDatabase::FindObject, maintained
// one row at a time instead of by scanning.
//
// Publication is O(1) per insert regardless of history length (ROADMAP
// item 3). Two structures make that true:
//
//  - The index is sharded by camera: a read-mostly directory (route ->
//    shard) behind an atomic shared_ptr, cloned only when a camera
//    registers; each shard holds its camera's immutable CameraRecord
//    behind its own atomic shared_ptr. An insert locks one shard, clones
//    one record, and swaps one pointer — other cameras' records are
//    untouched and never copied.
//
//  - A record's per-class interval list is an IntervalChain: closed
//    intervals are frozen into immutable chunk nodes shared between
//    record versions (a clone copies one shared_ptr plus a bounded
//    mutable tail), so cloning a camera with 100k intervals costs the
//    same as cloning one with 10.
//
// Read side: wait-free. Queries walk the directory (ForEachCamera) with one
// atomic load per camera and materialize nothing; snapshot() copies the
// same loads into an IndexSnapshot for callers that want to hold a view.
// A windowed FindObject visits only the runs near its window
// (IntervalChain::ForEachOverlapping), not the camera's whole history.
// Consistency is per-camera prefix consistency: each camera's record
// reflects an exact prefix of that camera's insert stream. (The
// pre-sharding index additionally froze all cameras at one instant;
// sharding trades that cross-camera point-in-time atomicity — which no
// query needed — for O(1) publication.)
//
// Equivalence contract (tested): once a camera is sealed with its final
// frame count, its per-class intervals are bit-exactly the ranges
// ResultsDatabase::FindObject(cls, total_frames) returns for that camera's
// drained database.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/results_db.h"
#include "obs/metrics.h"
#include "query/clock.h"
#include "synth/labels.h"

namespace sieve::query {

/// Sentinel `end` of an interval whose event is still on screen.
inline constexpr std::size_t kOpenEnd = core::kOpenInterval;

/// One maximal half-open [begin, end) run of frames whose propagated labels
/// contain a class. end == kOpenEnd while the event is still live.
struct FrameInterval {
  std::size_t begin = 0;
  std::size_t end = kOpenEnd;

  friend bool operator==(const FrameInterval&, const FrameInterval&) = default;
};

/// A standing-query notification: a class entered (first frame seen) or
/// exited (first frame gone) a camera's view.
struct QueryEvent {
  enum class Kind { kEnter, kExit };
  Kind kind = Kind::kEnter;
  std::string camera_id;
  synth::ObjectClass cls = synth::ObjectClass::kCar;
  std::size_t frame = 0;  ///< session-local frame id of the transition
  double seconds = 0.0;   ///< the same instant on the shared stream clock
};

/// Persistent (immutable-shared) interval list. Closed intervals are frozen
/// into chunk nodes of kChunk runs; nodes link newest-to-oldest and are
/// shared by every record version cloned after the freeze. Only the tail —
/// at most kChunk closed runs plus one open run — is a mutable vector, so
/// copying a chain is O(1): one shared_ptr + one bounded vector.
///
/// Mutation contract (exactly the incremental FindObject scan):
///  - push_back() appends a run; at most the last run is ever open.
///  - close_back(end) closes the open last run.
///  - pop_back() drops the open last run (degenerate seal).
/// Frozen runs are always closed: freezing happens inside push_back, which
/// the scan only reaches when no run is open.
class IntervalChain {
 public:
  static constexpr std::size_t kChunk = 64;

  std::size_t size() const noexcept { return frozen_count_ + tail_.size(); }
  bool empty() const noexcept { return size() == 0; }

  /// True when the newest run is still open (always in the tail: frozen
  /// runs are closed by construction).
  bool has_open() const noexcept {
    return !tail_.empty() && tail_.back().end == kOpenEnd;
  }
  const FrameInterval& back() const noexcept { return tail_.back(); }

  void push_back(FrameInterval run) {
    if (tail_.size() >= kChunk) {
      // No run is open here (see class contract), so the whole tail is
      // closed and can be frozen for sharing.
      auto node = std::make_shared<Node>();
      node->prev = std::move(frozen_);
      node->runs = std::move(tail_);
      frozen_ = std::move(node);
      frozen_count_ += kChunk;
      tail_.clear();
    }
    tail_.push_back(run);
  }

  void close_back(std::size_t end) noexcept { tail_.back().end = end; }
  void pop_back() noexcept { tail_.pop_back(); }

  /// Flat copy, oldest first (tests, rebuild comparisons).
  std::vector<FrameInterval> Materialize() const {
    std::vector<FrameInterval> out(size());
    // Segments link newest-to-oldest, so fill from the back.
    auto dst = std::copy_backward(tail_.begin(), tail_.end(), out.end());
    for (const Node* n = frozen_.get(); n != nullptr; n = n->prev.get()) {
      dst = std::copy_backward(n->runs.begin(), n->runs.end(), dst);
    }
    return out;
  }

  /// Visit, newest first, every run whose span on `clock` overlaps the
  /// window [t0, t1) by exactly FindObject's test: it does not begin at or
  /// after t1, and it does not end at or before t0 (an open run ends at
  /// +inf). `fn(run, begin_seconds, end_seconds)` gets the span.
  ///
  /// Requires a monotone clock (CameraClock::Valid): the runs are sorted
  /// and disjoint, so "begins before t1" holds on a prefix of the chain
  /// and "ends after t0" on a suffix. The walk skips the chunks wholly at
  /// or after t1 on their first run, binary-searches the newest chunk that
  /// begins before t1, and stops at the first run that ends at or before
  /// t0: O(chunks newer than the window + log kChunk + hits), not
  /// O(size()). Either bound may be NaN or infinite; a NaN bound filters
  /// nothing, as in the full scan.
  template <typename Fn>
  void ForEachOverlapping(const CameraClock& clock, double t0, double t1,
                          Fn&& fn) const {
    const auto begins_before_t1 = [&](const FrameInterval& run) {
      return !(clock.TimeOf(run.begin) >= t1);
    };
    // Set once the walk has passed every run that begins at or after t1.
    bool all_before_t1 = false;
    // One segment (tail or chunk), newest first. False once a run ends at
    // or before t0: every older run does too.
    const auto visit = [&](const std::vector<FrameInterval>& runs) {
      auto hi = runs.end();
      if (!all_before_t1) {
        if (runs.empty() || !begins_before_t1(runs.front())) return true;
        hi = std::partition_point(runs.begin(), runs.end(), begins_before_t1);
        all_before_t1 = true;
      }
      for (auto it = hi; it != runs.begin();) {
        --it;
        const double end_seconds =
            it->end == kOpenEnd ? std::numeric_limits<double>::infinity()
                                : clock.TimeOf(it->end);
        if (end_seconds <= t0) return false;
        fn(*it, clock.TimeOf(it->begin), end_seconds);
      }
      return true;
    };
    if (!visit(tail_)) return;
    for (const Node* n = frozen_.get(); n != nullptr && visit(n->runs);
         n = n->prev.get()) {
    }
  }

  /// Replace the chain's contents with `runs` (the out-of-order rebuild
  /// path — O(history), which is exactly why rebuilds are counted).
  static IntervalChain FromRuns(
      const std::vector<std::pair<std::size_t, std::size_t>>& runs) {
    IntervalChain chain;
    for (const auto& [begin, end] : runs) {
      chain.push_back(FrameInterval{begin, end});
    }
    return chain;
  }

 private:
  struct Node {
    std::shared_ptr<const Node> prev;  ///< next-older chunk
    std::vector<FrameInterval> runs;   ///< kChunk closed runs, oldest first
  };

  std::shared_ptr<const Node> frozen_;
  std::size_t frozen_count_ = 0;
  std::vector<FrameInterval> tail_;
};

/// Immutable per-camera state inside a snapshot. A reopened camera id gets
/// a fresh record per incarnation (records are keyed by the session's
/// unique route, and carry the display id). Cloning one is O(1): the
/// interval chains share their frozen history with the parent version.
struct CameraRecord {
  std::string camera_id;  ///< display id (incarnations repeat it)
  CameraClock clock;
  std::uint64_t inserts = 0;  ///< rows folded in: this snapshot's prefix length
  bool sealed = false;        ///< session drained; intervals are final
  std::size_t total_frames = 0;  ///< frames the session pushed (once sealed)
  bool has_rows = false;
  std::size_t last_frame = 0;  ///< highest frame id folded in
  synth::LabelSet current;     ///< labels of the latest analyzed frame
  std::array<IntervalChain, std::size_t(synth::kNumObjectClasses)>
      intervals;  ///< per class, sorted, disjoint; at most the last is open
};

/// One materialized, per-camera-consistent view of the whole index (see
/// the consistency note in the header comment).
struct IndexSnapshot {
  std::uint64_t version = 0;
  /// Every camera incarnation ever registered, keyed by session route.
  std::map<std::string, std::shared_ptr<const CameraRecord>> cameras;
};

/// The concurrent index, sharded by camera. Each shard's mutex serializes
/// that camera's ingest; readers only ever touch immutable records.
class QueryIndex {
 public:
  /// `rebuilds` (optional) counts out-of-order rebuild fallbacks — the
  /// "query.rebuilds" counter when owned by a QueryService.
  explicit QueryIndex(obs::Counter* rebuilds = nullptr)
      : rebuilds_(rebuilds),
        directory_(std::make_shared<const Directory>()) {}

  QueryIndex(const QueryIndex&) = delete;
  QueryIndex& operator=(const QueryIndex&) = delete;

  /// Announce a camera incarnation before its first insert can arrive.
  /// Re-registering an existing route is ignored. Precondition: a valid
  /// clock (CameraClock::Valid), which the windowed read path relies on;
  /// a camera with any other clock is not indexed, so its inserts drop.
  void RegisterCamera(const std::string& route, std::string camera_id,
                      CameraClock clock);

  /// Fold one ResultsDatabase insert into the camera's intervals and
  /// publish the camera's next record — O(1) work and O(1) copied state
  /// regardless of the camera's history. In-order inserts (the runtime's
  /// ordered stages guarantee them) update incrementally; an out-of-order
  /// or overwriting insert falls back to rebuilding the camera's intervals
  /// from `db`, which the caller must keep stable for the call (the
  /// observer seam runs under the session's db lock). Returns the
  /// enter/exit transitions this insert caused.
  std::vector<QueryEvent> Apply(const std::string& route,
                                const core::ResultsDatabase& db,
                                std::size_t frame,
                                const synth::LabelSet& labels);

  /// Mark a camera's stream complete at `total_frames`: open intervals
  /// close there (degenerate ones opening at or past the end are dropped,
  /// matching FindObject), and the camera stops counting as live.
  /// Idempotent — first writer wins; returns the exit events of the closed
  /// intervals.
  std::vector<QueryEvent> Seal(const std::string& route,
                               std::size_t total_frames);

  /// Wait-free consistent view, materialized from the shards (one atomic
  /// load per camera; records are immutable).
  std::shared_ptr<const IndexSnapshot> snapshot() const;

  /// Wait-free walk of every camera incarnation's current record, in route
  /// order, without materializing a snapshot: one atomic load per camera,
  /// the same per-camera consistency. `fn(route, record)`.
  template <typename Fn>
  void ForEachCamera(Fn&& fn) const {
    const auto dir = directory_.load(std::memory_order_acquire);
    for (const auto& [route, shard] : *dir) {
      fn(route, shard->record.load(std::memory_order_acquire));
    }
  }

  /// Version of the index (0 = empty): bumps on every effective update.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  /// One camera's ingest lane: the mutex serializes writers for this
  /// camera only; readers just load the record pointer.
  struct CameraShard {
    mutable std::mutex mu;
    std::atomic<std::shared_ptr<const CameraRecord>> record;
  };
  using Directory = std::map<std::string, std::shared_ptr<CameraShard>>;

  obs::Counter* rebuilds_ = nullptr;
  std::mutex register_mutex_;  ///< serializes directory clones only
  std::atomic<std::shared_ptr<const Directory>> directory_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace sieve::query
