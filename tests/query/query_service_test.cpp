#include "query/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/results_db.h"

namespace sieve::query {
namespace {

using synth::LabelSet;
using synth::ObjectClass;

LabelSet L(std::initializer_list<ObjectClass> classes) {
  LabelSet set;
  for (ObjectClass c : classes) set.Add(c);
  return set;
}

/// One camera wired to a service exactly the way the runtime wires a
/// session: registered on the clock, every db insert published through the
/// observer seam.
struct CameraFeed {
  CameraFeed(QueryService& service, std::string route_key,
             const std::string& id, CameraClock clock)
      : route(std::move(route_key)) {
    service.RegisterCamera(route, id, clock);
    db.set_observer([&service, r = route](const core::ResultsDatabase& d,
                                          std::size_t frame,
                                          const LabelSet& labels) {
      service.Publish(r, d, frame, labels);
    });
  }

  std::string route;
  core::ResultsDatabase db;
};

/// The acceptance-criterion mapping: a drained camera's FindObject ranges
/// pushed through its shared-clock — what QueryService must return
/// bit-exactly.
std::vector<QueryHit> ExpectedHits(const core::ResultsDatabase& db,
                                   const std::string& camera_id,
                                   CameraClock clock, ObjectClass cls,
                                   std::size_t total_frames) {
  std::vector<QueryHit> hits;
  for (const auto& [begin, end] : db.FindObject(cls, total_frames)) {
    QueryHit hit;
    hit.camera_id = camera_id;
    hit.begin_frame = begin;
    hit.end_frame = end;
    hit.begin_seconds = clock.TimeOf(begin);
    hit.end_seconds = clock.TimeOf(end);
    hit.open = false;
    hits.push_back(hit);
  }
  return hits;
}

void ExpectHitsEqual(const std::vector<QueryHit>& actual,
                     const std::vector<QueryHit>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].camera_id, expected[i].camera_id);
    EXPECT_EQ(actual[i].begin_frame, expected[i].begin_frame);
    EXPECT_EQ(actual[i].end_frame, expected[i].end_frame);
    // Bit-exact endpoints: both sides computed through CameraClock::TimeOf.
    EXPECT_EQ(actual[i].begin_seconds, expected[i].begin_seconds);
    EXPECT_EQ(actual[i].end_seconds, expected[i].end_seconds);
    EXPECT_EQ(actual[i].open, expected[i].open);
  }
}

TEST(ClassIntervals, ReportsOpenRunWithSentinel) {
  std::map<std::size_t, LabelSet> rows;
  rows[2] = L({ObjectClass::kCar});
  rows[5] = LabelSet();
  rows[8] = L({ObjectClass::kCar});
  const auto runs = core::ClassIntervals(rows, ObjectClass::kCar);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], std::make_pair(std::size_t(2), std::size_t(5)));
  EXPECT_EQ(runs[1].first, 8u);
  EXPECT_EQ(runs[1].second, core::kOpenInterval);
}

TEST(QueryServiceTest, EmptyIndexAnswersEmpty) {
  QueryService service;
  EXPECT_TRUE(service.FindObject(ObjectClass::kCar).empty());
  EXPECT_TRUE(service.WhereIs(ObjectClass::kCar).empty());
  EXPECT_EQ(service.version(), 0u);
}

TEST(QueryServiceTest, LiveHitsTrackInsertsIncrementally) {
  QueryService service;
  const CameraClock clock{1.0, 10.0};
  CameraFeed cam(service, "gate#1", "gate", clock);

  cam.db.Insert(0, LabelSet());
  cam.db.Insert(3, L({ObjectClass::kCar}));
  cam.db.Insert(7, L({ObjectClass::kCar, ObjectClass::kPerson}));
  cam.db.Insert(9, L({ObjectClass::kPerson}));

  const auto car = service.FindObject(ObjectClass::kCar);
  ASSERT_EQ(car.size(), 1u);
  EXPECT_EQ(car[0].camera_id, "gate");
  EXPECT_EQ(car[0].begin_frame, 3u);
  EXPECT_EQ(car[0].end_frame, 9u);
  EXPECT_EQ(car[0].begin_seconds, clock.TimeOf(3));
  EXPECT_EQ(car[0].end_seconds, clock.TimeOf(9));
  EXPECT_FALSE(car[0].open);

  // The person event is still on screen: open hit, live camera.
  const auto person = service.FindObject(ObjectClass::kPerson);
  ASSERT_EQ(person.size(), 1u);
  EXPECT_TRUE(person[0].open);
  EXPECT_EQ(person[0].end_frame, kOpenEnd);
  EXPECT_EQ(person[0].end_seconds, std::numeric_limits<double>::infinity());
  EXPECT_EQ(service.WhereIs(ObjectClass::kPerson),
            std::vector<std::string>{"gate"});
  EXPECT_TRUE(service.WhereIs(ObjectClass::kCar).empty());
}

TEST(QueryServiceTest, SealedHitsMatchDrainedDatabaseBitExactly) {
  QueryService service;
  const CameraClock clock{0.25, 12.5};
  CameraFeed cam(service, "gate#1", "gate", clock);

  cam.db.Insert(0, L({ObjectClass::kBus}));
  cam.db.Insert(4, LabelSet());
  cam.db.Insert(6, L({ObjectClass::kBus, ObjectClass::kBoat}));
  cam.db.Insert(11, L({ObjectClass::kBoat}));
  service.Seal("gate#1", 15);

  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    const auto cls = ObjectClass(c);
    ExpectHitsEqual(service.FindObject(cls),
                    ExpectedHits(cam.db, "gate", clock, cls, 15));
  }
  // Sealed cameras are never "currently seeing" anything.
  EXPECT_TRUE(service.WhereIs(ObjectClass::kBoat).empty());
}

TEST(QueryServiceTest, SealSuppressesDegenerateOpenInterval) {
  QueryService service;
  CameraFeed cam(service, "gate#1", "gate", CameraClock{});
  cam.db.Insert(5, L({ObjectClass::kCar}));
  // The event "opens" exactly where the stream ends: FindObject drops it,
  // so the index must too.
  service.Seal("gate#1", 5);
  EXPECT_TRUE(service.FindObject(ObjectClass::kCar).empty());
  ExpectHitsEqual(service.FindObject(ObjectClass::kCar),
                  ExpectedHits(cam.db, "gate", CameraClock{},
                               ObjectClass::kCar, 5));
}

TEST(QueryServiceTest, TimeWindowSelectsOverlappingEventsUnclipped) {
  QueryService service;
  const CameraClock clock{10.0, 2.0};  // frame f at 10 + f/2
  CameraFeed cam(service, "cam#1", "cam", clock);
  cam.db.Insert(4, L({ObjectClass::kCar}));   // car on at t=12
  cam.db.Insert(8, LabelSet());               // car off at t=14
  service.Seal("cam#1", 10);

  EXPECT_TRUE(service.FindObject(ObjectClass::kCar, 0.0, 12.0).empty());
  EXPECT_TRUE(service.FindObject(ObjectClass::kCar, 14.0, 99.0).empty());
  const auto overlapping = service.FindObject(ObjectClass::kCar, 13.5, 13.6);
  ASSERT_EQ(overlapping.size(), 1u);
  // The hit is the whole event, not the clipped window.
  EXPECT_EQ(overlapping[0].begin_seconds, 12.0);
  EXPECT_EQ(overlapping[0].end_seconds, 14.0);
}

TEST(QueryServiceTest, CrossCameraHitsAreTimeAlignedAndSorted) {
  QueryService service;
  const CameraClock early{0.0, 1.0};
  const CameraClock late{0.5, 1.0};
  CameraFeed a(service, "a#1", "a", late);
  CameraFeed b(service, "b#1", "b", early);

  a.db.Insert(1, L({ObjectClass::kTruck}));  // t=1.5
  b.db.Insert(2, L({ObjectClass::kTruck}));  // t=2.0
  b.db.Insert(0, LabelSet());  // keeps b's earlier state explicit
  service.Seal("a#1", 4);
  service.Seal("b#1", 4);

  const auto hits = service.FindObject(ObjectClass::kTruck);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].camera_id, "a");  // 1.5s on the shared clock
  EXPECT_EQ(hits[1].camera_id, "b");  // 2.0s
  EXPECT_LT(hits[0].begin_seconds, hits[1].begin_seconds);
}

TEST(QueryServiceTest, OutOfOrderInsertRebuildsFromDatabase) {
  QueryService service;
  CameraFeed cam(service, "cam#1", "cam", CameraClock{});
  cam.db.Insert(5, L({ObjectClass::kCar}));
  cam.db.Insert(2, LabelSet());                // out of order
  cam.db.Insert(5, LabelSet());                // overwrite: car gone
  cam.db.Insert(8, L({ObjectClass::kCar}));    // back in order
  service.Seal("cam#1", 12);

  ExpectHitsEqual(
      service.FindObject(ObjectClass::kCar),
      ExpectedHits(cam.db, "cam", CameraClock{}, ObjectClass::kCar, 12));
}

TEST(QueryServiceTest, ReopenedCameraIdKeepsBothIncarnations) {
  QueryService service;
  const CameraClock first_clock{0.0, 30.0};
  const CameraClock second_clock{9.0, 30.0};
  CameraFeed first(service, "gate#1", "gate", first_clock);
  first.db.Insert(0, L({ObjectClass::kCar}));
  service.Seal("gate#1", 3);

  CameraFeed second(service, "gate#2", "gate", second_clock);
  second.db.Insert(1, L({ObjectClass::kCar}));

  const auto hits = service.FindObject(ObjectClass::kCar);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].camera_id, "gate");
  EXPECT_EQ(hits[1].camera_id, "gate");
  EXPECT_FALSE(hits[0].open);
  EXPECT_TRUE(hits[1].open);
  // WhereIs reports the id once, from the live incarnation only.
  EXPECT_EQ(service.WhereIs(ObjectClass::kCar),
            std::vector<std::string>{"gate"});
}

TEST(QueryServiceTest, SubscriptionsFireEnterAndExitInOrder) {
  QueryService service;
  const CameraClock clock{2.0, 4.0};
  CameraFeed cam(service, "cam#1", "cam", clock);

  std::vector<QueryEvent> car_events;
  const auto id = service.Subscribe(
      ObjectClass::kCar,
      [&car_events](const QueryEvent& e) { car_events.push_back(e); });
  std::size_t person_events = 0;
  service.Subscribe(ObjectClass::kPerson,
                    [&person_events](const QueryEvent&) { ++person_events; });

  cam.db.Insert(1, L({ObjectClass::kCar}));
  cam.db.Insert(3, LabelSet());
  cam.db.Insert(6, L({ObjectClass::kCar}));
  service.Seal("cam#1", 9);  // closes the live event -> exit at 9

  ASSERT_EQ(car_events.size(), 4u);
  EXPECT_EQ(car_events[0].kind, QueryEvent::Kind::kEnter);
  EXPECT_EQ(car_events[0].frame, 1u);
  EXPECT_EQ(car_events[0].seconds, clock.TimeOf(1));
  EXPECT_EQ(car_events[0].camera_id, "cam");
  EXPECT_EQ(car_events[1].kind, QueryEvent::Kind::kExit);
  EXPECT_EQ(car_events[1].frame, 3u);
  EXPECT_EQ(car_events[2].kind, QueryEvent::Kind::kEnter);
  EXPECT_EQ(car_events[2].frame, 6u);
  EXPECT_EQ(car_events[3].kind, QueryEvent::Kind::kExit);
  EXPECT_EQ(car_events[3].frame, 9u);
  EXPECT_EQ(person_events, 0u);  // class filter held

  // Unsubscribed: later transitions stay silent.
  service.Unsubscribe(id);
  CameraFeed other(service, "cam#2", "cam", clock);
  other.db.Insert(0, L({ObjectClass::kCar}));
  EXPECT_EQ(car_events.size(), 4u);
}

TEST(QueryServiceTest, VersionGrowsWithEveryIndexUpdate) {
  QueryService service;
  EXPECT_EQ(service.version(), 0u);
  CameraFeed cam(service, "cam#1", "cam", CameraClock{});
  const auto after_register = service.version();
  EXPECT_GT(after_register, 0u);
  cam.db.Insert(0, L({ObjectClass::kCar}));
  EXPECT_GT(service.version(), after_register);
  const auto after_insert = service.version();
  service.Seal("cam#1", 1);
  EXPECT_GT(service.version(), after_insert);
  // Snapshots are immutable: an old handle still reads its own version.
  const auto snap = service.snapshot();
  service.Seal("cam#1", 1);  // idempotent: no new version
  EXPECT_EQ(service.version(), snap->version);
}

TEST(QueryServiceTest, ChunkedChainsMatchRebuildAtScale) {
  // Far past the chain's chunk size: every boundary between the frozen
  // segments and the mutable tail must stay invisible to readers.
  QueryService service;
  const CameraClock clock{0.0, 30.0};
  CameraFeed cam(service, "cam#1", "cam", clock);
  constexpr std::size_t kIntervals = 1500;
  for (std::size_t k = 0; k < kIntervals; ++k) {
    cam.db.Insert(2 * k, L({ObjectClass::kCar}));
    cam.db.Insert(2 * k + 1, LabelSet());
  }
  // Leave one open event so close-on-seal crosses the tail too.
  cam.db.Insert(2 * kIntervals, L({ObjectClass::kCar}));
  service.Seal("cam#1", 2 * kIntervals + 4);

  const auto hits = service.FindObject(ObjectClass::kCar);
  EXPECT_EQ(hits.size(), kIntervals + 1);
  ExpectHitsEqual(hits, ExpectedHits(cam.db, "cam", clock, ObjectClass::kCar,
                                     2 * kIntervals + 4));
}

TEST(QueryServiceTest, RebuildCounterCountsOutOfOrderFallback) {
  auto registry = std::make_shared<obs::Registry>();
  obs::Counter* rebuilds = registry->GetCounter("query.rebuilds");
  QueryService service(registry);
  CameraFeed cam(service, "cam#1", "cam", CameraClock{});

  cam.db.Insert(5, L({ObjectClass::kCar}));
  cam.db.Insert(9, LabelSet());
  EXPECT_EQ(rebuilds->value(), 0) << "in-order inserts take the O(1) path";
  cam.db.Insert(2, L({ObjectClass::kPerson}));  // out of order
  EXPECT_EQ(rebuilds->value(), 1);
  cam.db.Insert(5, LabelSet());  // overwrite of an existing row
  EXPECT_EQ(rebuilds->value(), 2);
  cam.db.Insert(11, L({ObjectClass::kCar}));  // back in order
  EXPECT_EQ(rebuilds->value(), 2);
}

TEST(QueryServiceTest, SealFirstWriterWins) {
  QueryService service;
  CameraFeed cam(service, "cam#1", "cam", CameraClock{});
  cam.db.Insert(0, L({ObjectClass::kCar}));
  service.Seal("cam#1", 5);
  service.Seal("cam#1", 9);  // late duplicate with a different total

  const auto hits = service.FindObject(ObjectClass::kCar);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].end_frame, 5u) << "the first seal's total must stick";
  EXPECT_FALSE(hits[0].open);
}

// Satellite: a journal holding seal -> reopen -> inserts must replay to
// the same incarnation-keyed snapshot a live run produced. Exercised here
// at the service level: the replay path registers and publishes in journal
// order through the same API, so both runs must agree hit-for-hit.
TEST(QueryServiceTest, ReplayOfSealReopenInsertsMatchesLiveRun) {
  const CameraClock first_clock{0.0, 30.0};
  const CameraClock second_clock{9.0, 30.0};

  // Live run: first incarnation sealed, second reopened and still live.
  QueryService live;
  {
    CameraFeed first(live, "gate#1", "gate", first_clock);
    first.db.Insert(0, L({ObjectClass::kCar}));
    first.db.Insert(2, LabelSet());
    live.Seal("gate#1", 3);
    CameraFeed second(live, "gate#2", "gate", second_clock);
    second.db.Insert(1, L({ObjectClass::kCar}));
    second.db.Insert(4, L({ObjectClass::kCar, ObjectClass::kPerson}));
  }

  // Replay run: the same records in journal order against a fresh service.
  QueryService replayed;
  {
    CameraFeed first(replayed, "gate#1", "gate", first_clock);
    first.db.Insert(0, L({ObjectClass::kCar}));
    first.db.Insert(2, LabelSet());
    replayed.Seal("gate#1", 3);
    CameraFeed second(replayed, "gate#2", "gate", second_clock);
    second.db.Insert(1, L({ObjectClass::kCar}));
    second.db.Insert(4, L({ObjectClass::kCar, ObjectClass::kPerson}));
  }

  const auto live_snap = live.snapshot();
  const auto replay_snap = replayed.snapshot();
  ASSERT_EQ(replay_snap->cameras.size(), live_snap->cameras.size());
  for (const auto& [route, record] : live_snap->cameras) {
    const auto it = replay_snap->cameras.find(route);
    ASSERT_NE(it, replay_snap->cameras.end()) << route;
    EXPECT_EQ(it->second->sealed, record->sealed);
    for (std::size_t c = 0; c < record->intervals.size(); ++c) {
      EXPECT_EQ(it->second->intervals[c].Materialize(),
                record->intervals[c].Materialize())
          << route << " class " << c;
    }
  }
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    ExpectHitsEqual(replayed.FindObject(ObjectClass(c)),
                    live.FindObject(ObjectClass(c)));
  }
}

TEST(QueryServiceTest, RegisterCameraIgnoresNonMonotoneClocks) {
  QueryService service;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const CameraClock bad[] = {{0.0, 0.0},  {0.0, -30.0}, {0.0, kNaN},
                             {0.0, kInf}, {kNaN, 30.0}, {-kInf, 30.0}};
  int n = 0;
  for (const CameraClock& clock : bad) {
    EXPECT_FALSE(clock.Valid());
    CameraFeed cam(service, "bad#" + std::to_string(++n), "bad", clock);
    cam.db.Insert(0, L({ObjectClass::kCar}));
  }
  EXPECT_EQ(service.version(), 0u) << "no bad clock may be indexed";
  EXPECT_TRUE(service.snapshot()->cameras.empty());
  EXPECT_TRUE(service.FindObject(ObjectClass::kCar).empty());
  EXPECT_TRUE(service.WhereIs(ObjectClass::kCar).empty());

  CameraFeed good(service, "good#1", "good", CameraClock{-4.0, 25.0});
  good.db.Insert(0, L({ObjectClass::kCar}));
  EXPECT_EQ(service.FindObject(ObjectClass::kCar).size(), 1u);
}

/// The full scan FindObject replaced, kept as the reference: every run of
/// every camera in a materialized snapshot, filtered, then sorted.
std::vector<QueryHit> FullScan(const QueryService& service, ObjectClass cls,
                               double t0, double t1) {
  std::vector<QueryHit> hits;
  const auto snap = service.snapshot();
  for (const auto& [route, cam] : snap->cameras) {
    for (const FrameInterval& run :
         cam->intervals[std::size_t(cls)].Materialize()) {
      const bool open = run.end == kOpenEnd;
      const double begin_seconds = cam->clock.TimeOf(run.begin);
      const double end_seconds =
          open ? QueryService::kEndOfTime : cam->clock.TimeOf(run.end);
      if (begin_seconds >= t1 || end_seconds <= t0) continue;
      hits.push_back(QueryHit{cam->camera_id, run.begin, run.end,
                              begin_seconds, end_seconds, open});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const QueryHit& a, const QueryHit& b) {
              return std::tie(a.begin_seconds, a.camera_id, a.begin_frame) <
                     std::tie(b.begin_seconds, b.camera_id, b.begin_frame);
            });
  return hits;
}

TEST(QueryServiceTest, WindowedFindObjectMatchesFullScan) {
  Rng rng(2024);
  QueryService service;
  struct Spec {
    const char* route;
    const char* id;
    CameraClock clock;
    bool sealed;
  };
  const Spec specs[] = {{"a#1", "a", {0.0, 30.0}, false},
                        {"b#1", "b", {2.5, 25.0}, true},
                        {"gate#1", "gate", {0.0, 25.0}, true},
                        {"gate#2", "gate", {1.0, 30.0}, false},
                        {"c#1", "c", {-3.25, 30.0}, false}};
  std::vector<std::unique_ptr<CameraFeed>> feeds;
  for (const Spec& spec : specs) {
    auto feed =
        std::make_unique<CameraFeed>(service, spec.route, spec.id, spec.clock);
    // Each class toggles often enough for 4+ chunks of runs.
    std::uint8_t bits = 0;
    std::size_t frame = 0;
    for (int row = 0; row < 3000; ++row) {
      for (int c = 0; c < synth::kNumObjectClasses; ++c) {
        if (rng.Chance(0.45)) bits ^= std::uint8_t(1u << c);
      }
      feed->db.Insert(frame, LabelSet(bits));
      frame += std::size_t(rng.UniformInt(1, 3));
    }
    // Every class on screen at the end: open tails on the live cameras,
    // closed-at-seal runs on the sealed ones.
    feed->db.Insert(frame, LabelSet(0x1f));
    if (spec.sealed) service.Seal(spec.route, frame + 5);
    feeds.push_back(std::move(feed));
  }
  // One overwrite midway through: c's chains come from the rebuild path.
  feeds.back()->db.Insert(600, LabelSet(0x0a));
  const auto snap = service.snapshot();
  for (const auto& [route, cam] : snap->cameras) {
    for (const IntervalChain& chain : cam->intervals) {
      ASSERT_GT(chain.size(), 4 * IntervalChain::kChunk) << route;
    }
  }
  // Two more incarnations of one id whose clocks coincide at frame 150
  // (6 s): equal sort keys, whose order the sort takes from its input.
  CameraFeed tie1(service, "tie#1", "tie", CameraClock{0.0, 25.0});
  CameraFeed tie2(service, "tie#2", "tie", CameraClock{1.0, 30.0});
  tie1.db.Insert(150, L({ObjectClass::kCar}));
  tie1.db.Insert(160, LabelSet());
  service.Seal("tie#1", 170);
  tie2.db.Insert(150, L({ObjectClass::kCar}));

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    const auto cls = ObjectClass(c);
    const auto all = FullScan(service, cls, -kInf, kInf);
    ASSERT_FALSE(all.empty());
    ExpectHitsEqual(service.FindObject(cls), all);

    std::vector<std::pair<double, double>> windows = {
        {-kInf, kInf}, {kInf, -kInf}, {-kInf, -kInf}, {kInf, kInf},
        {kNaN, kNaN},  {kNaN, 30.0},  {30.0, kNaN},   {-kInf, 30.0},
        {30.0, kInf},  {kNaN, kInf},  {-kInf, kNaN},  {6.0, 6.0}};
    const double horizon = all.back().begin_seconds + 1.0;
    for (int k = 0; k < 40; ++k) {
      // Bounds exactly on interval endpoints, in every combination.
      const QueryHit& a = all[rng.UniformU64(0, all.size() - 1)];
      const QueryHit& b = all[rng.UniformU64(0, all.size() - 1)];
      windows.emplace_back(a.begin_seconds, b.end_seconds);
      windows.emplace_back(a.end_seconds, b.begin_seconds);
      windows.emplace_back(a.begin_seconds, a.end_seconds);
      windows.emplace_back(a.end_seconds, a.end_seconds);
      // Random windows of every width, and reversed ones (t1 <= t0).
      const double t0 = rng.Uniform(-5.0, horizon);
      const double width = std::exp(rng.Uniform(-4.0, 5.0));
      windows.emplace_back(t0, t0 + width);
      windows.emplace_back(t0 + width, t0);
    }
    for (const auto& [t0, t1] : windows) {
      SCOPED_TRACE("class " + std::to_string(c) + " window [" +
                   std::to_string(t0) + ", " + std::to_string(t1) + ")");
      ExpectHitsEqual(service.FindObject(cls, t0, t1),
                      FullScan(service, cls, t0, t1));
    }
  }
}

}  // namespace
}  // namespace sieve::query
