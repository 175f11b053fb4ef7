// Statistics helpers of the benchmark: medians, tail percentiles that state
// how many samples lie beyond them, and the open-loop backlog detector.
#pragma once

#include <cstddef>
#include <vector>

namespace xlb {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile of `values`, p in (0, 100]. Throws on empty input
/// or p outside (0, 100].
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile position of a
/// set of `count` samples: count - ceil(p / 100 * count).
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double p);

/// The highest percentile of {99.9, 99, 90, 50} that has at least
/// kMinBeyond samples beyond it, with its value and the counts it rests on.
/// `p` is 0 (and `value` the maximum) when even the median lacks them.
struct TailPercentile {
  static constexpr std::size_t kMinBeyond = 10;
  double p = 0.0;
  double value = 0.0;
  std::size_t count = 0;   ///< Samples the percentile was taken over.
  std::size_t beyond = 0;  ///< Samples beyond it.
};
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> values);

/// Open-loop backlog detector. `latencies` are per-request latencies in
/// due-time order. A backlog grows when the offered rate exceeds capacity:
/// latency then climbs through the window instead of fluctuating around a
/// level. Reports growth when the medians of the four consecutive quarters
/// strictly increase and the last is more than twice the first. Fewer than
/// 40 samples never count as growth.
[[nodiscard]] bool backlog_growing(const std::vector<double>& latencies);

}  // namespace xlb
