// timeseries.hpp — continuous windowed telemetry: an interval sampler
// over the metrics registry.
//
// Everything the registry exports is cumulative — end-of-run totals,
// lifetime percentile estimates.  That answers "what happened", never
// "when": a burn spike in the last 50 ms of a 20 s run is invisible in
// the totals, and every consumer that needed windowed signals (the
// watchdog's rolling rules, ad-hoc interval rates in benches) had been
// recomputing them privately.  This layer is the one shared definition:
// a monitor-thread-driven sampler that takes periodic
// MetricsRegistry::snapshot() deltas into fixed-capacity per-series
// rings —
//
//   counter    -> cumulative value, per-interval delta, windowed rate/s
//   gauge      -> last value, running max
//   histogram  -> interval p50/p99 from *bin deltas* (the distribution
//                 of only this interval's observations, not the lifetime
//                 mix), plus the cumulative estimates at that instant
//
// each stamped with a monotonic `run.elapsed_ns` from sampler birth.
// The interval percentiles reuse Histogram::quantile_from_bins, so a
// "windowed p99" is computed by exactly one piece of code tree-wide.
//
// The Watchdog evaluates its four rules over this backend (it owns a
// private TimeSeries when constructed from a bare registry, or shares
// yours), and the CLIs export the rings as the run document's
// `timeseries` section (docs/formats.md).
//
// Concurrency: start()/stop() own the monitor thread; sample_once() may
// also be driven manually (tests, per-scenario sampling in fuzz_ss) and
// is serialized against the thread.  Registry reads go through
// snapshot(), the registry's lock-free-reader contract, so sampling
// never stalls the data path.  Observers (the watchdog) run on the
// sampling thread after each appended interval.  stop() joins and then
// takes one final sample so the closing window of a short run is never
// lost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ss::telemetry {

struct TimeSeriesConfig {
  std::chrono::milliseconds poll_interval{5};
  std::size_t capacity = 256;  ///< retained intervals per series (>= 2)
};

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One series' reading for one interval.  Only the fields matching the
/// series' kind are meaningful; the rest stay zero.
struct TsPoint {
  std::uint64_t t_ns = 0;  ///< run.elapsed_ns at interval end

  // Counters.
  std::uint64_t cum = 0;    ///< cumulative value at interval end
  std::uint64_t delta = 0;  ///< growth across this interval
  double rate_per_s = 0.0;  ///< delta over the interval's wall time

  // Gauges.
  std::int64_t last = 0;
  std::int64_t max = 0;  ///< running max across the run

  // Histograms.
  std::uint64_t count_cum = 0;
  std::uint64_t count_delta = 0;
  double p50 = 0.0, p99 = 0.0;  ///< THIS interval's distribution (bin deltas)
  double cum_p50 = 0.0, cum_p99 = 0.0;  ///< lifetime estimate at this instant
};

class TimeSeries {
 public:
  explicit TimeSeries(MetricsRegistry& reg, TimeSeriesConfig cfg = {});
  ~TimeSeries();
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Register a callback run on the sampling thread after every appended
  /// interval (the watchdog's evaluation hook).  Returns a token for
  /// remove_observer.  Observers must not call sample_once() re-entrantly.
  std::size_t add_observer(std::function<void()> fn);
  void remove_observer(std::size_t token);

  [[nodiscard]] MetricsRegistry& registry() const noexcept { return reg_; }

  /// Spawn / join the monitor thread.  Both idempotent; stop() takes one
  /// final sample after joining (closing-window sweep).
  void start();
  void stop();

  /// Take one snapshot delta now; safe alongside the monitor thread and
  /// from any thread.  Returns the total interval count after this one.
  std::uint64_t sample_once();

  /// Retained intervals (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total intervals ever sampled.
  [[nodiscard]] std::uint64_t intervals() const;
  /// Intervals that have fallen off the rings.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Monotonic nanoseconds since sampler birth (run start).
  [[nodiscard]] std::uint64_t elapsed_ns() const;

  /// The last `w` retained points of the named series, oldest first.
  /// Always returns min(w, size()) points with t_ns stamped: a series
  /// the registry does not carry yields all-zero readings, so window
  /// rules evaluated over it simply never trip (the watchdog's
  /// absent-instrumentation contract).
  [[nodiscard]] std::vector<TsPoint> window(const std::string& name,
                                            std::size_t w) const;

  /// Kind of a tracked series; false when the name has never been seen.
  [[nodiscard]] bool kind_of(const std::string& name, SeriesKind& out) const;

  /// The run document's single-line `timeseries` section
  /// (docs/formats.md).
  [[nodiscard]] std::string to_json() const;

  /// Human-readable tail of the last `k` intervals — the rate context
  /// fuzz_ss prints next to a divergence.  Counters with zero growth in
  /// the tail are elided.
  [[nodiscard]] std::string tail_text(std::size_t k) const;

 private:
  struct Series {
    SeriesKind kind = SeriesKind::kCounter;
    std::deque<TsPoint> points;  ///< lockstep with t_ns_
    std::vector<std::uint64_t> prev_bins;  ///< histogram delta basis
  };

  void run_thread();
  void append_locked(const Snapshot& snap, std::uint64_t now_ns,
                     std::uint64_t dt_ns);

  MetricsRegistry& reg_;
  TimeSeriesConfig cfg_;
  const std::chrono::steady_clock::time_point t0_;

  mutable std::mutex mu_;  ///< guards rings and interval counters
  std::deque<std::uint64_t> t_ns_;
  std::map<std::string, Series> series_;
  std::uint64_t intervals_ = 0;
  std::uint64_t last_t_ns_ = 0;

  std::mutex sample_mu_;  ///< serializes whole samples + observer runs
  std::vector<std::pair<std::size_t, std::function<void()>>> observers_;
  std::size_t next_observer_ = 0;

  std::mutex lifecycle_mu_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace ss::telemetry
