// stats.hpp — exact percentiles over a stored sample set.
#pragma once

#include <cstddef>
#include <vector>

namespace ss {

/// Exact percentile over a stored sample set (used for delay/jitter
/// reporting where sample counts are bounded by the experiment length).
class PercentileSampler {
 public:
  explicit PercentileSampler(std::size_t reserve = 0);

  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t n() const { return samples_.size(); }

  /// p in [0, 100].  Sorts lazily; subsequent calls are cheap until the
  /// next add().  Returns 0 for an empty sampler.
  [[nodiscard]] double percentile(double p);
  [[nodiscard]] double median() { return percentile(50.0); }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace ss
