// metrics.hpp — lock-free pipeline metrics registry.
//
// The paper's evaluation lives on seeing inside the host/FPGA pipeline
// while it runs: decision cycles, PCI round-trips, ring occupancy,
// per-stream grants.  This registry is the live-counter layer under every
// realization: named counters, gauges and histograms whose hot paths take
// no lock — a counter increment is one relaxed RMW on a per-thread
// cache-line cell, a histogram observe relaxed load+store pairs by its
// one writer — so a TSan-stressed data path (producer + scheduler threads)
// can be sampled by a monitor thread calling snapshot() at any moment
// without locks, stalls or races.
//
// Consistency contract: snapshot() is per-metric atomic and monotonic
// (a counter never appears to decrease across snapshots), not globally
// atomic across metrics.  The export is single-line JSON (machine
// diffing, jq).
//
// Instrumentation is attach-based and disabled by default: a component
// with no metrics struct attached pays one null-pointer test per site,
// nothing else.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ss::telemetry {

inline constexpr std::size_t kMetricCacheLine = 64;

/// Monotonic counter.  Increments land on one of kCells cache-line-padded
/// atomic cells chosen by a per-thread slot, so concurrent incrementers
/// (producer thread, scheduler thread) never contend on one line; value()
/// sums the cells.  All ordering is relaxed — the registry publishes no
/// cross-metric invariants, only per-metric totals.
class Counter {
 public:
  static constexpr std::size_t kCells = 8;  // power of two

  void add(std::uint64_t n = 1) noexcept {
    cells_[thread_slot()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(kMetricCacheLine) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  // Inline (header-defined) so the hot path is a TLS read + fetch_add with
  // no call: slots are dealt round-robin at first use per thread, shared
  // across every Counter instance.
  static std::size_t thread_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) & (kCells - 1);
    return slot;
  }
  std::array<Cell, kCells> cells_{};
};

/// Point-in-time signed value (queue depth, high-water mark).  set/add are
/// single relaxed RMWs; update_max is a CAS loop (rarely retried — the
/// high-water mark only moves up).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Relaxed single-writer add: a plain load+store, no lock-prefixed RMW.
/// Only for a cell one thread writes; readers on any thread still see
/// untorn values through the atomic.
inline void single_writer_add(std::atomic<std::uint64_t>& c,
                              std::uint64_t d = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

/// Fixed-bin histogram over [lo, hi), linear or logarithmic bins (a log
/// histogram with B bins makes each bin a factor (hi/lo)^(1/B) wide, so
/// the percentile error is relative).  Out-of-range samples clamp to the
/// edge bins, so no observation is lost.  quantile() interpolates inside
/// the bin that crosses the rank (in log space for log bins), so the
/// estimate error is bounded by one bin's width.
///
/// Concurrency: one writer, any readers.  observe() and reset() belong to
/// the one thread that feeds the histogram (the thread driving the chip
/// or TE, the drain loop, the threaded scheduler thread, a profiler
/// stage's owner), and advance the bins, count and sum with relaxed
/// load+store pairs — no lock-prefixed RMW.  Readers (snapshot(), the
/// time series, the watchdog, quantile()) may run on any thread at any
/// moment and see untorn per-field values.  Two threads must never
/// observe into one histogram; Counter is the multi-writer metric.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins, bool log_scale = false);

  void observe(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t b) const noexcept {
    return counts_[b].v.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double bin_lo(std::size_t b) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t b) const noexcept {
    return bin_lo(b + 1);
  }

  /// Streaming quantile estimate, p in [0, 100].  0 when empty.
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] bool log_scale() const noexcept { return log_; }

  /// Quantile from an explicit bin set (`edges` size B+1, `counts` size
  /// B): the one interpolation definition shared by quantile(), the
  /// snapshot percentiles and the time-series interval (bin-delta)
  /// percentiles, so a "windowed p99" means the same thing everywhere.
  /// p in [0, 100]; 0 when the counts sum to zero.
  static double quantile_from_bins(const std::vector<double>& edges,
                                   const std::vector<std::uint64_t>& counts,
                                   double p, bool log_scale);

  void reset() noexcept;

 private:
  struct AtomicCell {
    std::atomic<std::uint64_t> v{0};
  };
  std::size_t index_of(double x) noexcept;

  double lo_, hi_;
  bool log_;
  /// Bin b spans [origin_ + b*width_, origin_ + (b+1)*width_) on the
  /// binning axis: x itself for linear bins, log(x) for log bins.
  double origin_, width_;
  /// The writer's same-bin cache for log bins: a value range shrunk
  /// strictly inside bin cache_bin_ (empty until the first in-range
  /// observe), refreshed by index_of.  See observe.
  double cache_lo_ = 1.0, cache_hi_ = 0.0;
  std::size_t cache_bin_ = 0;
  std::vector<AtomicCell> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's value at snapshot time.
struct Sample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram observation count
  std::int64_t gauge = 0;
  double sum = 0.0;         ///< histogram sum
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  /// Histogram bin layout (histograms only): B+1 edges, B counts, and the
  /// spacing flag interpolation needs.  One coherent copy per snapshot so
  /// the time-series interval sampler's bin deltas never race the live
  /// bins.
  bool hist_log = false;
  std::vector<double> bin_edges;
  std::vector<std::uint64_t> bin_counts;
};

struct Snapshot {
  std::vector<Sample> samples;  ///< sorted by name

  /// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
  ///  "sum":..,"p50":..,...}}} — one line, the run document's `metrics`
  ///  section (docs/formats.md).
  [[nodiscard]] std::string to_json() const;
};

/// Named-metric registry.  Registration (counter()/gauge()/histogram())
/// takes a mutex and returns a stable reference — do it at attach time,
/// never per event.  The returned handles are lock-free; snapshot() takes
/// the same mutex only to iterate the name table, so it can run on a
/// monitor thread while every handle is being hammered.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-requesting an existing histogram name returns the existing
  /// instance (the bin layout of the first registration wins).
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins, bool log_scale = false);

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::string to_json() const { return snapshot().to_json(); }

  /// Zero every metric (counters, gauges, histogram bins).  Snapshots
  /// taken concurrently see each metric either before or after its reset.
  /// A histogram's reset is one of its writes: call this while no
  /// histogram is being observed.
  void reset();

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ss::telemetry
