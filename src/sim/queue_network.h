// Queueing-network model on top of the DES core.
//
// Stations are FCFS multi-server queues with per-job service times; jobs
// carry a route (an ordered list of stations). This models the 3-tier
// pipeline exactly: e.g. for the "I-frame edge + cloud NN" placement a job
// (one frame) routes through [edge seek] -> [edge decode+resize] ->
// [WAN link] -> [cloud NN], where the link is a 1-server station whose
// service time is the serialization delay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/scheduler.h"
#include "sim/simulator.h"

namespace sieve::sim {

struct Job {
  std::uint64_t id = 0;
  std::size_t bytes = 0;      ///< current payload size (stations may change it)
  std::uint32_t kind = 0;     ///< caller-defined tag (frame type, video id...)
  double injected_at = 0.0;
  double completed_at = 0.0;
};

/// Per-station service model: returns service seconds for a job and may
/// mutate it (e.g. decode shrinks bytes to a resized still).
using ServiceFn = std::function<double(Job&)>;

/// Batch-station service model: service seconds for one batched pass over
/// the given jobs (e.g. fixed weight-streaming cost + per-sample cost).
using BatchServiceFn = std::function<double(const std::vector<Job*>&)>;

struct StationStats {
  std::string name;
  std::uint64_t served = 0;
  double busy_seconds = 0.0;      ///< total service time delivered
  double total_wait_seconds = 0.0;///< queueing delay (excludes service)
  std::size_t peak_queue = 0;
  std::uint64_t batches = 0;      ///< batched passes (batch stations only)

  double utilization(double makespan, int servers) const noexcept {
    return makespan > 0 ? busy_seconds / (makespan * servers) : 0.0;
  }
  /// Mean batch occupancy of a batch station (served jobs per pass).
  double occupancy_avg() const noexcept {
    return batches > 0 ? double(served) / double(batches) : 0.0;
  }
};

class QueueNetwork {
 public:
  explicit QueueNetwork(Simulator* sim) : sim_(sim) {}

  /// Returns the station id.
  int AddStation(std::string name, int servers, ServiceFn service);

  /// A batching FCFS station: whenever a server is free and jobs are
  /// queued, one batched pass serves the fairness-planned FIFO prefix (up
  /// to batch_max jobs) at once; jobs that arrive while every server is
  /// busy form the next batch. Job::kind is the fairness key (camera id).
  /// This is the DES twin of fleet::InferenceBatcher — the same policy
  /// object and flush rule drive both, so a candidate batch/fairness
  /// setting is validated at 10k-camera scale in virtual time before the
  /// live runtime hosts it.
  int AddBatchStation(std::string name, int servers,
                      fleet::FleetSchedulerPolicy policy,
                      BatchServiceFn service);

  /// Inject a job at `arrival` that visits `route` stations in order.
  void Inject(Job job, std::vector<int> route, double arrival);

  /// Run the simulation to completion.
  void Run();

  const StationStats& stats(int station) const { return stations_.at(std::size_t(station)).stats; }
  int servers(int station) const { return stations_.at(std::size_t(station)).servers; }
  std::size_t station_count() const noexcept { return stations_.size(); }

  std::uint64_t jobs_completed() const noexcept { return completed_; }
  /// Completion time of the last job (the makespan driving throughput).
  double makespan() const noexcept { return makespan_; }
  /// Mean end-to-end latency (injection -> final completion) over all jobs.
  double mean_latency() const noexcept {
    return completed_ ? latency_sum_ / double(completed_) : 0.0;
  }

 private:
  struct Pending {
    Job job;
    std::vector<int> route;
    std::size_t hop = 0;
    double enqueued_at = 0.0;
  };
  struct Station {
    std::string name;
    int servers = 1;
    int busy = 0;
    ServiceFn service;
    std::vector<Pending> queue;  // FIFO
    StationStats stats;
    // Batch-station extras (batch == true).
    bool batch = false;
    fleet::FleetScheduler scheduler;
    BatchServiceFn batch_service;
  };

  void ArriveAt(Pending pending);
  void TryStart(int station_id);
  void TryStartBatch(int station_id);
  void FinishJob(Pending pending);

  Simulator* sim_;
  std::vector<Station> stations_;
  std::uint64_t completed_ = 0;
  double makespan_ = 0.0;
  double latency_sum_ = 0.0;
};

}  // namespace sieve::sim
