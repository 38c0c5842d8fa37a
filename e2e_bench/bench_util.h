// Small measurement helpers shared by the end-to-end benchmark: clocks,
// order statistics, process CPU, host-noise counters, and the heap meter
// (heap_meter.cpp replaces the global allocator to track live bytes).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (one epoch for the whole process).
inline double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

inline Clock::time_point ToTimePoint(double seconds) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds)));
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Process user+sys CPU seconds (all threads).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
         double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

/// Involuntary context switches of this process so far.
inline long InvoluntaryContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nivcsw;
}

/// Aggregate CPU jiffies from the first line of /proc/stat. Steal is the
/// time the hypervisor ran something else while this guest wanted the CPU.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};

inline CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  std::uint64_t v = 0;
  for (int i = 0; fields >> v; ++i) {
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already folded into user/nice, so stop at steal.
    if (i < 8) out.total += v;
    if (i == 7) out.steal = v;
  }
  out.valid = out.total > 0;
  return out;
}

// Heap meter (heap_meter.cpp): live bytes handed out by operator new.
std::int64_t HeapLiveBytes();

}  // namespace e2e
