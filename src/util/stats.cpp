#include "util/stats.hpp"

#include <algorithm>

namespace ss {

PercentileSampler::PercentileSampler(std::size_t reserve) {
  samples_.reserve(reserve);
}

void PercentileSampler::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileSampler::percentile(double p) {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

}  // namespace ss
