#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xlb {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no samples");
  const std::size_t n = values.size();
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (n % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return 0.5 * (lower + upper);
}

namespace {

/// 1-based nearest rank of the p-th percentile among `count` samples.
std::size_t nearest_rank(std::size_t count, double p) {
  if (count == 0) throw std::invalid_argument("percentile: no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  }
  // The tolerance keeps a product that is integral in exact arithmetic
  // (99.9% of 10000) from rounding up past it.
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(count) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, count);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  const std::size_t rank = nearest_rank(values.size(), p);
  const auto it = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), it, values.end());
  return *it;
}

std::size_t samples_beyond(std::size_t count, double p) {
  return count - nearest_rank(count, p);
}

TailPercentile tail_percentile(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("tail_percentile: no samples");
  TailPercentile tail;
  tail.count = values.size();
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const std::size_t beyond = samples_beyond(values.size(), p);
    if (beyond >= TailPercentile::kMinBeyond) {
      tail.p = p;
      tail.beyond = beyond;
      tail.value = percentile(std::move(values), p);
      return tail;
    }
  }
  tail.value = *std::max_element(values.begin(), values.end());
  return tail;
}

bool backlog_growing(const std::vector<double>& latencies) {
  const std::size_t n = latencies.size();
  if (n < 40) return false;
  double quarter[4];
  for (std::size_t q = 0; q < 4; ++q) {
    const auto first = latencies.begin() + static_cast<std::ptrdiff_t>(q * n / 4);
    const auto last = latencies.begin() + static_cast<std::ptrdiff_t>((q + 1) * n / 4);
    quarter[q] = median(std::vector<double>(first, last));
  }
  return quarter[0] < quarter[1] && quarter[1] < quarter[2] &&
         quarter[2] < quarter[3] && quarter[3] > 2.0 * quarter[0];
}

}  // namespace xlb
