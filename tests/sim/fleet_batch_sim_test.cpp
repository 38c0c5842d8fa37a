// Fleet-scale validation of the batching tier in virtual time: the DES
// batch station (driven by the SAME FleetSchedulerPolicy as the live
// InferenceBatcher) must amortize the batched pass's fixed cost across a
// 10k-camera fleet, beating the per-frame station on makespan while every
// job still completes.
#include <gtest/gtest.h>

#include "fleet/scheduler.h"
#include "sim/queue_network.h"

namespace sieve::sim {
namespace {

// Cloud-NN service model: a batched pass streams the suffix weights once
// (fixed cost) then pays a per-sample cost; the per-frame path pays the
// fixed cost on every frame.
constexpr double kFixedCost = 0.008;    // weight streaming per pass
constexpr double kPerSample = 0.002;    // per-activation compute

double BatchedService(const std::vector<Job*>& jobs) {
  return kFixedCost + kPerSample * double(jobs.size());
}

double PerFrameService(Job&) { return kFixedCost + kPerSample; }

struct FleetRun {
  double makespan = 0.0;
  double mean_latency = 0.0;
  StationStats cloud;
};

// `cameras` cameras each push `frames` frames, staggered so arrivals spread
// over ~2 virtual seconds (a live fleet's steady-state fan-in).
FleetRun RunFleet(int cameras, int frames, bool batched, int servers) {
  Simulator sim;
  QueueNetwork net(&sim);
  int cloud;
  if (batched) {
    fleet::FleetSchedulerPolicy policy;
    policy.batch_max = 32;
    cloud = net.AddBatchStation("cloud/nn", servers, policy, BatchedService);
  } else {
    cloud = net.AddStation("cloud/nn", servers, PerFrameService);
  }
  for (int cam = 0; cam < cameras; ++cam) {
    for (int f = 0; f < frames; ++f) {
      Job job;
      job.id = std::uint64_t(cam) * 1000 + std::uint64_t(f);
      job.kind = std::uint32_t(cam);  // fairness key
      const double arrival =
          2.0 * double(cam) / double(cameras) + 0.5 * double(f);
      net.Inject(job, {cloud}, arrival);
    }
  }
  net.Run();
  FleetRun out;
  out.makespan = net.makespan();
  out.mean_latency = net.mean_latency();
  out.cloud = net.stats(cloud);
  EXPECT_EQ(net.jobs_completed(), std::uint64_t(cameras) * frames);
  return out;
}

TEST(FleetBatchSim, BatchingAmortizesFixedCostAt10kCameras) {
  constexpr int kCameras = 10'000;
  constexpr int kFrames = 4;
  constexpr int kServers = 8;
  const FleetRun batched = RunFleet(kCameras, kFrames, true, kServers);
  const FleetRun unbatched = RunFleet(kCameras, kFrames, false, kServers);

  // Per-frame: the cloud needs 40k * 10ms / 8 servers = 50s of service and
  // saturates. Batched at ~32 occupancy the same work is ~3.6s — arrivals
  // (~3.5s span) dominate and the makespan collapses toward the arrival
  // horizon.
  EXPECT_LT(batched.makespan, unbatched.makespan * 0.5)
      << "batching failed to amortize the fixed per-pass cost";
  EXPECT_LT(batched.mean_latency, unbatched.mean_latency);

  EXPECT_EQ(batched.cloud.served, std::uint64_t(kCameras) * kFrames);
  EXPECT_GT(batched.cloud.batches, 0u);
  EXPECT_GT(batched.cloud.occupancy_avg(), 8.0)
      << "a saturated 10k-camera fleet should fill batches well past 8";
  EXPECT_LE(batched.cloud.occupancy_avg(), 32.0);
  // The per-frame station runs one job per "batch" by definition.
  EXPECT_EQ(unbatched.cloud.batches, 0u);
}

TEST(FleetBatchSim, IdleStationServesEachArrivalAtOnce) {
  // One camera trickling frames: the station is idle at every arrival, so
  // each frame flushes alone the moment it arrives and its latency is
  // exactly one single-sample pass — no wait for the batch to fill.
  Simulator sim;
  QueueNetwork net(&sim);
  fleet::FleetSchedulerPolicy policy;
  policy.batch_max = 64;
  const int cloud = net.AddBatchStation("cloud/nn", 1, policy, BatchedService);
  constexpr int kFrames = 20;
  for (int f = 0; f < kFrames; ++f) {
    Job job;
    job.id = std::uint64_t(f);
    net.Inject(job, {cloud}, 0.2 * f);  // far apart: the station idles
  }
  net.Run();
  EXPECT_EQ(net.jobs_completed(), std::uint64_t(kFrames));
  EXPECT_EQ(net.stats(cloud).batches, std::uint64_t(kFrames))
      << "sparse arrivals: every frame rides its own flush";
  EXPECT_DOUBLE_EQ(net.stats(cloud).total_wait_seconds, 0.0);
  EXPECT_NEAR(net.mean_latency(), kFixedCost + kPerSample, 1e-12);
}

TEST(FleetBatchSim, FairnessShareKeepsHotCameraFromStarvingOthers) {
  Simulator sim;
  QueueNetwork net(&sim);
  fleet::FleetSchedulerPolicy policy;
  policy.batch_max = 8;
  policy.fairness_share = 2;
  const int cloud = net.AddBatchStation("cloud/nn", 1, policy, BatchedService);
  // Camera 0 floods 64 frames at t=0; cameras 1..7 push one frame each just
  // after. With fairness_share=2 the trickle cameras ride the first batches
  // instead of queuing behind the flood.
  for (int f = 0; f < 64; ++f) {
    Job job;
    job.kind = 0;
    net.Inject(job, {cloud}, 0.0);
  }
  for (int cam = 1; cam < 8; ++cam) {
    Job job;
    job.id = 100 + std::uint64_t(cam);
    job.kind = std::uint32_t(cam);
    net.Inject(job, {cloud}, 0.001);
  }
  net.Run();
  EXPECT_EQ(net.jobs_completed(), 64u + 7u);
  EXPECT_GT(net.stats(cloud).batches, 0u);
}

}  // namespace
}  // namespace sieve::sim
