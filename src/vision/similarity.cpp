#include "vision/similarity.h"

#include <algorithm>
#include <limits>

#include "media/metrics.h"

namespace sieve::vision {

std::vector<double> MseChangeSignal(const std::vector<media::Frame>& frames) {
  std::vector<double> signal(frames.size(), 0.0);
  MseSignal s;
  for (std::size_t i = 0; i < frames.size(); ++i) signal[i] = s.Push(frames[i]);
  return signal;
}

std::vector<double> SiftChangeSignal(const std::vector<media::Frame>& frames,
                                     const SiftParams& params) {
  std::vector<double> signal(frames.size(), 0.0);
  SiftSignal s(params);
  for (std::size_t i = 0; i < frames.size(); ++i) signal[i] = s.Push(frames[i]);
  return signal;
}

double MseSignal::Push(const media::Frame& frame) {
  double out = 0.0;
  if (has_prev_) out = media::FrameMse(prev_, frame);
  prev_ = frame;
  has_prev_ = true;
  return out;
}

double SiftSignal::Push(const media::Frame& frame) {
  std::vector<SiftKeypoint> cur = ExtractSift(frame.y(), params_);
  double out = 0.0;
  if (has_prev_) out = 1.0 - MatchSift(prev_, cur).similarity;
  prev_ = std::move(cur);
  has_prev_ = true;
  return out;
}

std::vector<std::size_t> SelectByThreshold(const std::vector<double>& signal,
                                           double threshold) {
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    if (i == 0 || signal[i] > threshold) selected.push_back(i);
  }
  return selected;
}

double CalibrateThreshold(const std::vector<double>& signal,
                          std::size_t target_count) {
  if (signal.empty()) return 0.0;
  if (target_count <= 1) return std::numeric_limits<double>::infinity();
  // Frame 0 is always selected; we may pick target_count - 1 more. The
  // (target_count - 1)-th largest signal value is the tightest threshold.
  std::vector<double> sorted(signal.begin() + 1, signal.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::size_t extra = target_count - 1;
  if (extra >= sorted.size()) return -1.0;  // select everything
  // Threshold strictly between the k-th and (k+1)-th largest -> exactly k
  // selections.
  const double tied = sorted[extra - 1];
  if (tied != sorted[extra]) return (tied + sorted[extra]) / 2.0;
  // A run of equal values straddles the cut, so no threshold selects
  // exactly k: `above` values lie strictly above the run (fewer than k) and
  // `through` values reach its end (more than k). `above` is 0 when the run
  // tops the signal, so always taking it would select nothing. Take the
  // nearer count; on a draw the smaller one, within budget.
  const std::size_t above = std::size_t(
      std::lower_bound(sorted.begin(), sorted.end(), tied, std::greater<>()) -
      sorted.begin());
  const std::size_t through = std::size_t(
      std::upper_bound(sorted.begin(), sorted.end(), tied, std::greater<>()) -
      sorted.begin());
  if (extra - above <= through - extra) return tied;  // selects `above`
  if (through == sorted.size()) return -1.0;          // select everything
  return (tied + sorted[through]) / 2.0;               // selects `through`
}

}  // namespace sieve::vision
