// qos_monitor.hpp — per-stream QoS accounting.
//
// Collects the three guarantees ShareStreams provisions (bandwidth, delay,
// delay-jitter) as time series and aggregates: Figure 8 is the bandwidth
// series, Figure 9 the delay series, Figure 10 the per-streamlet bandwidth
// aggregates.  Bandwidth is windowed (bytes departed per window); delay is
// per-frame departure-minus-arrival.  Delay percentiles come exact from the
// kept series, or streaming from per-stream log-binned telemetry::Histograms
// — the same histogram type and interpolation the metrics registry uses.
//
// The per-stream delay aggregates are integer nanoseconds, so the mean
// and jitter are exact integer means, divided once when queried.  The
// sums are u64: a stream's delay_sum_ns wraps after 2^64 ns (about 584
// years) of summed delay, e.g. 1.8e9 frames that each waited 10 s.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "queueing/transmission_engine.hpp"
#include "telemetry/metrics.hpp"

namespace ss::core {

struct BwPoint {
  std::uint64_t window_end_ns;
  double mbps;  ///< megabytes per second in this window (MBps, as Fig. 8/10)
};

struct DelayPoint {
  std::uint64_t departure_ns;
  double delay_us;
};

class QosMonitor {
 public:
  /// `bw_window_ns` — bandwidth averaging window (Figure 8 plots MBps over
  /// run time; 10 ms windows reproduce its granularity).
  explicit QosMonitor(std::uint32_t streams, std::uint64_t bw_window_ns);

  void record(const queueing::TxRecord& r);

  /// Close any open bandwidth window (call once after the run).
  void finish();

  [[nodiscard]] std::uint32_t streams() const {
    return static_cast<std::uint32_t>(per_stream_.size());
  }
  [[nodiscard]] const std::vector<BwPoint>& bandwidth_series(
      std::uint32_t s) const {
    return per_stream_[s].bw_series;
  }
  [[nodiscard]] const std::vector<DelayPoint>& delay_series(
      std::uint32_t s) const {
    return per_stream_[s].delay_series;
  }

  /// Mean bandwidth over the whole run (total bytes / span).
  [[nodiscard]] double mean_mbps(std::uint32_t s) const;
  /// Mean delay: the exact sum of delays over the frame count (0 with no
  /// frame).
  [[nodiscard]] double mean_delay_us(std::uint32_t s) const;
  /// Mean absolute difference of consecutive delays (0 below two frames).
  [[nodiscard]] double mean_jitter_us(std::uint32_t s) const;
  [[nodiscard]] double max_delay_us(std::uint32_t s) const;

  /// Exact delay percentile (requires keep_series; 0 otherwise).  p in
  /// [0, 100]; tail latencies are the number an SLA is written against.
  [[nodiscard]] double delay_percentile_us(std::uint32_t s, double p) const;

  /// Streaming delay percentile from the per-stream log-binned histogram
  /// (requires set_delay_histogram(true); 0 otherwise): a
  /// telemetry::Histogram of 1024 log bins over [0.01, 1e7] us, so O(1)
  /// memory per stream regardless of run length and an estimate within
  /// one bin width (< 2.3% relative) of the exact series percentile.
  [[nodiscard]] double delay_percentile_est_us(std::uint32_t s,
                                               double p) const;
  [[nodiscard]] std::uint64_t frames(std::uint32_t s) const {
    return per_stream_[s].frames;
  }
  [[nodiscard]] std::uint64_t bytes(std::uint32_t s) const {
    return per_stream_[s].bytes;
  }

  /// Keep full series (disable for aggregate-only benches to save memory).
  void set_keep_series(bool v) { keep_series_ = v; }

  /// Maintain per-stream log-binned delay histograms for streaming
  /// percentile estimates — the aggregate-only replacement for keep_series
  /// when only tail latencies are needed.  Call before the first record().
  /// record() is each histogram's one writer (telemetry::Histogram's
  /// contract): feed a monitor from one thread.
  void set_delay_histogram(bool v) { delay_histogram_ = v; }

 private:
  struct PerStream {
    std::vector<BwPoint> bw_series;
    std::vector<DelayPoint> delay_series;
    std::uint64_t window_start_ns = 0;
    std::uint64_t window_bytes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t frames = 0;
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
    std::uint64_t delay_sum_ns = 0;
    std::uint64_t delay_max_ns = 0;
    std::uint64_t last_delay_ns = 0;
    std::uint64_t jitter_sum_ns = 0;  ///< sum of |delay - previous delay|
    std::optional<telemetry::Histogram> delay_hist;  ///< log-binned (us)
  };
  void roll_window(PerStream& ps, std::uint64_t now_ns);

  std::uint64_t window_ns_;
  bool keep_series_ = true;
  bool delay_histogram_ = false;
  std::vector<PerStream> per_stream_;
};

}  // namespace ss::core
