#include "sim/queue_network.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace sieve::sim {

int QueueNetwork::AddStation(std::string name, int servers, ServiceFn service) {
  Station station;
  station.name = name;
  station.stats.name = std::move(name);
  station.servers = std::max(1, servers);
  station.service = std::move(service);
  stations_.push_back(std::move(station));
  return int(stations_.size()) - 1;
}

int QueueNetwork::AddBatchStation(std::string name, int servers,
                                  fleet::FleetSchedulerPolicy policy,
                                  BatchServiceFn service) {
  Station station;
  station.name = name;
  station.stats.name = std::move(name);
  station.servers = std::max(1, servers);
  station.batch = true;
  station.scheduler = fleet::FleetScheduler(policy);
  station.batch_service = std::move(service);
  stations_.push_back(std::move(station));
  return int(stations_.size()) - 1;
}

void QueueNetwork::Inject(Job job, std::vector<int> route, double arrival) {
  job.injected_at = arrival;
  sim_->ScheduleAt(arrival, [this, job = std::move(job),
                             route = std::move(route)]() mutable {
    ArriveAt(Pending{std::move(job), std::move(route), 0, sim_->Now()});
  });
}

void QueueNetwork::ArriveAt(Pending pending) {
  if (pending.hop >= pending.route.size()) {
    FinishJob(std::move(pending));
    return;
  }
  const int sid = pending.route[pending.hop];
  assert(sid >= 0 && std::size_t(sid) < stations_.size());
  Station& station = stations_[std::size_t(sid)];
  pending.enqueued_at = sim_->Now();
  station.queue.push_back(std::move(pending));
  station.stats.peak_queue =
      std::max(station.stats.peak_queue, station.queue.size());
  if (station.batch) {
    TryStartBatch(sid);
  } else {
    TryStart(sid);
  }
}

void QueueNetwork::TryStartBatch(int station_id) {
  Station& station = stations_[std::size_t(station_id)];
  // Work-conserving: a free server flushes whatever is queued at once.
  while (station.busy < station.servers && !station.queue.empty()) {
    // Compose the batch exactly like the live batcher: fairness-planned
    // FIFO prefix keyed by Job::kind (the camera).
    std::vector<std::uint64_t> cameras;
    cameras.reserve(station.queue.size());
    for (const Pending& p : station.queue) cameras.push_back(p.job.kind);
    const std::vector<std::size_t> plan = station.scheduler.PlanBatch(cameras);
    auto batch = std::make_shared<std::vector<Pending>>();
    batch->reserve(plan.size());
    for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
      batch->push_back(std::move(station.queue[*it]));
      station.queue.erase(station.queue.begin() + std::ptrdiff_t(*it));
    }
    std::reverse(batch->begin(), batch->end());
    ++station.busy;
    std::vector<Job*> jobs;
    jobs.reserve(batch->size());
    for (Pending& p : *batch) {
      station.stats.total_wait_seconds += sim_->Now() - p.enqueued_at;
      jobs.push_back(&p.job);
    }
    const double service = station.batch_service(jobs);
    station.stats.busy_seconds += service;
    station.stats.served += batch->size();
    ++station.stats.batches;
    sim_->ScheduleIn(service, [this, station_id, batch]() {
      Station& s = stations_[std::size_t(station_id)];
      --s.busy;
      for (Pending& p : *batch) ++p.hop;
      // Free the server first, then route the batch's jobs onward.
      TryStartBatch(station_id);
      for (Pending& p : *batch) ArriveAt(std::move(p));
    });
  }
}

void QueueNetwork::TryStart(int station_id) {
  Station& station = stations_[std::size_t(station_id)];
  while (station.busy < station.servers && !station.queue.empty()) {
    Pending pending = std::move(station.queue.front());
    station.queue.erase(station.queue.begin());
    ++station.busy;
    station.stats.total_wait_seconds += sim_->Now() - pending.enqueued_at;
    const double service = station.service(pending.job);
    station.stats.busy_seconds += service;
    ++station.stats.served;
    sim_->ScheduleIn(service, [this, station_id,
                               pending = std::move(pending)]() mutable {
      Station& s = stations_[std::size_t(station_id)];
      --s.busy;
      ++pending.hop;
      // Free the server first, then route the job onward.
      TryStart(station_id);
      ArriveAt(std::move(pending));
    });
  }
}

void QueueNetwork::FinishJob(Pending pending) {
  pending.job.completed_at = sim_->Now();
  ++completed_;
  makespan_ = std::max(makespan_, pending.job.completed_at);
  latency_sum_ += pending.job.completed_at - pending.job.injected_at;
}

void QueueNetwork::Run() { sim_->Run(); }

}  // namespace sieve::sim
