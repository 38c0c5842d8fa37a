// FleetScheduler policy semantics: fairness-planned batch composition. The
// policy is pure, so these tests pin the exact behaviour both the live
// InferenceBatcher and the DES batch stations inherit.
#include <gtest/gtest.h>

#include "fleet/scheduler.h"

namespace sieve::fleet {
namespace {

TEST(FleetScheduler, ClampsDegenerateKnobs) {
  FleetSchedulerPolicy p;
  p.batch_max = 0;  // clamps to 1
  const FleetScheduler s(p);
  EXPECT_EQ(s.policy().batch_max, 1u);
  EXPECT_EQ(s.PlanBatch({7, 7}), (std::vector<std::size_t>{0}));
}

TEST(FleetScheduler, PlanBatchTakesFifoPrefixWithoutFairness) {
  FleetSchedulerPolicy p;
  p.batch_max = 3;
  const FleetScheduler s(p);
  const std::vector<std::uint64_t> cameras = {7, 7, 7, 7, 9};
  const std::vector<std::size_t> plan = s.PlanBatch(cameras);
  EXPECT_EQ(plan, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FleetScheduler, PlanBatchCapsHotCameraAtFairnessShare) {
  FleetSchedulerPolicy p;
  p.batch_max = 4;
  p.fairness_share = 2;
  const FleetScheduler s(p);
  // Camera 7 floods the queue; cameras 9 and 11 trickle in behind it. The
  // hog keeps its FIFO positions up to the share, then later cameras fill
  // the remaining slots.
  const std::vector<std::uint64_t> cameras = {7, 7, 7, 7, 9, 11, 7};
  const std::vector<std::size_t> plan = s.PlanBatch(cameras);
  EXPECT_EQ(plan, (std::vector<std::size_t>{0, 1, 4, 5}));
}

TEST(FleetScheduler, PlanBatchPreservesPerCameraOrder) {
  FleetSchedulerPolicy p;
  p.batch_max = 8;
  p.fairness_share = 1;
  const FleetScheduler s(p);
  const std::vector<std::uint64_t> cameras = {1, 2, 1, 3, 2};
  const std::vector<std::size_t> plan = s.PlanBatch(cameras);
  // One slot per camera, and each camera's chosen sample is its oldest —
  // the invariant that keeps per-camera delivery order intact.
  EXPECT_EQ(plan, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(FleetScheduler, PlanBatchEmptyQueue) {
  const FleetScheduler s;
  EXPECT_TRUE(s.PlanBatch({}).empty());
}

}  // namespace
}  // namespace sieve::fleet
