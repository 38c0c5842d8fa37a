// ResultsDatabase: label propagation and event-range queries, plus the seam
// contracts — the insert observer's install-before-first-insert hard error,
// and Restore()'s empty-and-unobserved rule — the two invariants the
// durable store's replay path leans on.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "core/results_db.h"
#include "synth/labels.h"

namespace sieve::core {
namespace {

synth::LabelSet Labels(std::initializer_list<synth::ObjectClass> classes) {
  synth::LabelSet set;
  for (auto c : classes) set.Add(c);
  return set;
}

TEST(ResultsDatabase, InsertAndPropagate) {
  ResultsDatabase db;
  db.Insert(0, synth::LabelSet());
  db.Insert(100, synth::LabelSet::Of(synth::ObjectClass::kCar));
  db.Insert(200, synth::LabelSet());

  EXPECT_TRUE(db.LabelAt(0).empty());
  EXPECT_TRUE(db.LabelAt(50).empty());
  EXPECT_TRUE(db.LabelAt(100).Contains(synth::ObjectClass::kCar));
  EXPECT_TRUE(db.LabelAt(150).Contains(synth::ObjectClass::kCar));
  EXPECT_TRUE(db.LabelAt(200).empty());
  EXPECT_TRUE(db.LabelAt(9999).empty());
}

TEST(ResultsDatabase, LabelBeforeFirstRowIsEmpty) {
  ResultsDatabase db;
  db.Insert(50, synth::LabelSet::Of(synth::ObjectClass::kBoat));
  EXPECT_TRUE(db.LabelAt(10).empty());
}

TEST(ResultsDatabase, FindObjectRanges) {
  ResultsDatabase db;
  db.Insert(0, synth::LabelSet());
  db.Insert(10, synth::LabelSet::Of(synth::ObjectClass::kCar));
  db.Insert(30, synth::LabelSet());
  db.Insert(50, synth::LabelSet::Of(synth::ObjectClass::kCar));

  const auto ranges = db.FindObject(synth::ObjectClass::kCar, 100);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{10, 30}));
  EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{50, 100}));
}

TEST(ResultsDatabase, FindObjectMissingClassIsEmpty) {
  ResultsDatabase db;
  db.Insert(0, synth::LabelSet::Of(synth::ObjectClass::kCar));
  EXPECT_TRUE(db.FindObject(synth::ObjectClass::kBoat, 10).empty());
}

TEST(ResultsDatabase, EmptyDatabaseQueries) {
  ResultsDatabase db;
  EXPECT_EQ(db.size(), 0u);
  EXPECT_TRUE(db.LabelAt(0).empty());
  EXPECT_TRUE(db.LabelAt(12345).empty());
  EXPECT_TRUE(db.FindObject(synth::ObjectClass::kCar, 0).empty());
  EXPECT_TRUE(db.FindObject(synth::ObjectClass::kCar, 100).empty());
}

TEST(ResultsDatabase, QueryBeforeFirstAnalyzedFrame) {
  ResultsDatabase db;
  db.Insert(40, synth::LabelSet::Of(synth::ObjectClass::kCar));
  db.Insert(60, synth::LabelSet());
  // No propagation backwards: frames before the first analyzed frame have
  // no labels, and the event range starts at the first analyzed frame.
  EXPECT_TRUE(db.LabelAt(0).empty());
  EXPECT_TRUE(db.LabelAt(39).empty());
  EXPECT_TRUE(db.LabelAt(40).Contains(synth::ObjectClass::kCar));
  const auto ranges = db.FindObject(synth::ObjectClass::kCar, 100);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{40, 60}));
}

TEST(ResultsDatabase, EventRangeTouchingTotalFrames) {
  ResultsDatabase db;
  db.Insert(0, synth::LabelSet());
  db.Insert(80, synth::LabelSet::Of(synth::ObjectClass::kBoat));
  // Still live at the last analyzed frame: the range closes at total_frames.
  auto ranges = db.FindObject(synth::ObjectClass::kBoat, 120);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{80, 120}));
  // Event opening exactly at total_frames: no degenerate empty range.
  EXPECT_TRUE(db.FindObject(synth::ObjectClass::kBoat, 80).empty());
  // A closing row landing exactly on total_frames reports the range once.
  db.Insert(120, synth::LabelSet());
  ranges = db.FindObject(synth::ObjectClass::kBoat, 120);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{80, 120}));
}

TEST(ResultsDbObserverTest, ObserverInstalledFirstSeesEveryInsert) {
  ResultsDatabase db;
  std::vector<std::size_t> seen;
  db.set_observer([&seen](const ResultsDatabase& inner, std::size_t frame,
                          const synth::LabelSet&) {
    seen.push_back(frame);
    EXPECT_GE(inner.size(), 1u);
  });
  db.Insert(0, Labels({synth::ObjectClass::kCar}));
  db.Insert(4, Labels({}));
  db.Insert(9, Labels({synth::ObjectClass::kPerson}));
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 4, 9}));
}

TEST(ResultsDbObserverTest, InstallAfterFirstInsertAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ResultsDatabase db;
  db.Insert(0, Labels({synth::ObjectClass::kCar}));
  EXPECT_DEATH(
      db.set_observer([](const ResultsDatabase&, std::size_t,
                         const synth::LabelSet&) {}),
      "observer installed after first Insert");
}

TEST(ResultsDbObserverTest, ClearingObserverIsAlwaysAllowed) {
  ResultsDatabase db;
  db.set_observer([](const ResultsDatabase&, std::size_t,
                     const synth::LabelSet&) {});
  db.Insert(0, Labels({synth::ObjectClass::kCar}));
  db.set_observer(nullptr);  // clearing after inserts is fine
  db.Insert(1, Labels({}));
  EXPECT_EQ(db.size(), 2u);
}

TEST(ResultsDbRestoreTest, RestoreThenObserveThenInsert) {
  ResultsDatabase db;
  std::map<std::size_t, synth::LabelSet> rows;
  rows.emplace(0, Labels({synth::ObjectClass::kCar}));
  rows.emplace(5, Labels({}));
  ASSERT_TRUE(db.Restore(std::move(rows)).ok());
  EXPECT_EQ(db.size(), 2u);

  // Restore does not close the observer window: the replay path restores
  // journaled rows first, then wires the live observer.
  std::vector<std::size_t> seen;
  db.set_observer([&seen](const ResultsDatabase&, std::size_t frame,
                          const synth::LabelSet&) { seen.push_back(frame); });
  db.Insert(9, Labels({synth::ObjectClass::kPerson}));
  EXPECT_EQ(seen, (std::vector<std::size_t>{9}));
  EXPECT_EQ(db.size(), 3u);

  // Restored + live rows answer queries as one stream.
  const auto runs = db.FindObject(synth::ObjectClass::kCar, 10);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first, 0u);
  EXPECT_EQ(runs[0].second, 5u);
}

TEST(ResultsDbRestoreTest, RestoreRefusesNonEmptyDatabase) {
  ResultsDatabase db;
  db.Insert(0, Labels({}));
  std::map<std::size_t, synth::LabelSet> rows;
  rows.emplace(1, Labels({}));
  EXPECT_FALSE(db.Restore(std::move(rows)).ok());
  EXPECT_EQ(db.size(), 1u);
}

TEST(ResultsDbRestoreTest, RestoreRefusesObservedDatabase) {
  ResultsDatabase db;
  db.set_observer([](const ResultsDatabase&, std::size_t,
                     const synth::LabelSet&) {});
  std::map<std::size_t, synth::LabelSet> rows;
  rows.emplace(0, Labels({}));
  EXPECT_FALSE(db.Restore(std::move(rows)).ok());
  EXPECT_EQ(db.size(), 0u);
}

TEST(ResultsDbRestoreTest, DoubleRestoreRefused) {
  ResultsDatabase db;
  std::map<std::size_t, synth::LabelSet> rows;
  rows.emplace(0, Labels({}));
  ASSERT_TRUE(db.Restore(std::move(rows)).ok());
  std::map<std::size_t, synth::LabelSet> more;
  more.emplace(1, Labels({}));
  EXPECT_FALSE(db.Restore(std::move(more)).ok());
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace sieve::core
