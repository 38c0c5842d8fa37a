// The cloud-side results store: each camera session of the multi-camera
// runtime owns one ResultsDatabase.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "synth/labels.h"

namespace sieve::core {

/// Sentinel `end` of a label run that is still live at the last analyzed
/// row (no later row has dropped the class yet).
inline constexpr std::size_t kOpenInterval = std::size_t(-1);

/// The reusable interval-merge core of FindObject: scan the ordered
/// (frame, labels) rows and build the maximal half-open [start, end) runs
/// whose propagated labels contain `cls`. A run still live at the last row
/// is reported with end == kOpenInterval; callers decide how to close it
/// (FindObject clamps to total_frames, the live query index keeps it open
/// until the session seals).
std::vector<std::pair<std::size_t, std::size_t>> ClassIntervals(
    const std::map<std::size_t, synth::LabelSet>& rows, synth::ObjectClass cls);

/// The cloud-side results store: (frame id, labels) tuples, queryable with
/// label propagation (Section III's output contract).
class ResultsDatabase {
 public:
  /// Insert-observer seam: the live query layer hooks per-session inserts
  /// here (see query::QueryService). Called after the row has landed, on
  /// the inserting thread, under whatever lock the caller holds around
  /// Insert — so the db reference is safe to read for the call's duration.
  using InsertObserver = std::function<void(
      const ResultsDatabase& db, std::size_t frame_id,
      const synth::LabelSet& labels)>;

  void Insert(std::size_t frame_id, synth::LabelSet labels);

  /// Install (or clear, with nullptr) the insert observer. Not
  /// synchronized against concurrent Insert — the observer MUST be
  /// installed before the database receives its first Insert. Installing
  /// one later is a hard error (the observer would have missed rows, and
  /// downstream consumers like the query index would silently diverge):
  /// it aborts rather than corrupt. Rows loaded via Restore() don't count
  /// — replayed state may be re-observed from scratch.
  void set_observer(InsertObserver observer);

  /// Bulk-load recovered rows into an empty, unobserved database (journal
  /// replay at boot). Fails if any row was already inserted or an observer
  /// is installed; does not fire the observer and does not close the
  /// set_observer window, so the caller can attach one after restoring.
  Status Restore(std::map<std::size_t, synth::LabelSet> rows);

  std::size_t size() const noexcept { return rows_.size(); }
  const std::map<std::size_t, synth::LabelSet>& rows() const noexcept {
    return rows_;
  }

  /// Label of an arbitrary frame: the labels of the latest analyzed frame at
  /// or before it (empty if none).
  synth::LabelSet LabelAt(std::size_t frame_id) const;

  /// Frame ranges whose propagated labels contain `cls` (event seek-back).
  /// Ranges are half-open [start, end); an event still live at the last
  /// analyzed frame is closed at `total_frames`, and empty ranges (an event
  /// opening exactly at `total_frames`) are not reported.
  std::vector<std::pair<std::size_t, std::size_t>> FindObject(
      synth::ObjectClass cls, std::size_t total_frames) const;

 private:
  std::map<std::size_t, synth::LabelSet> rows_;
  InsertObserver observer_;
  bool inserted_ = false;  ///< any live Insert seen (Restore doesn't count)
};

}  // namespace sieve::core
