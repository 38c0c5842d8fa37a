#include "fleet/scheduler.h"

#include <algorithm>
#include <unordered_map>

namespace sieve::fleet {

FleetScheduler::FleetScheduler(FleetSchedulerPolicy policy) : policy_(policy) {
  if (policy_.batch_max == 0) policy_.batch_max = 1;
}

std::vector<std::size_t> FleetScheduler::PlanBatch(
    const std::vector<std::uint64_t>& pending_cameras) const {
  std::vector<std::size_t> picked;
  picked.reserve(std::min(policy_.batch_max, pending_cameras.size()));
  if (policy_.fairness_share == 0) {
    const std::size_t n = std::min(policy_.batch_max, pending_cameras.size());
    for (std::size_t i = 0; i < n; ++i) picked.push_back(i);
    return picked;
  }
  std::unordered_map<std::uint64_t, std::size_t> taken;
  for (std::size_t i = 0;
       i < pending_cameras.size() && picked.size() < policy_.batch_max; ++i) {
    std::size_t& count = taken[pending_cameras[i]];
    if (count >= policy_.fairness_share) continue;  // hog: defer to next flush
    ++count;
    picked.push_back(i);
  }
  return picked;
}

}  // namespace sieve::fleet
