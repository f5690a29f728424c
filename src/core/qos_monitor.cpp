#include "core/qos_monitor.hpp"

#include <algorithm>
#include <cassert>

#include "util/stats.hpp"

namespace ss::core {

QosMonitor::QosMonitor(std::uint32_t streams, std::uint64_t bw_window_ns)
    : window_ns_(bw_window_ns == 0 ? 1 : bw_window_ns),
      per_stream_(streams) {}

void QosMonitor::roll_window(PerStream& ps, std::uint64_t now_ns) {
  while (now_ns >= ps.window_start_ns + window_ns_) {
    const std::uint64_t end = ps.window_start_ns + window_ns_;
    if (keep_series_) {
      // bytes / ns = GB/s; x1000 = MBps.
      const double mbps = static_cast<double>(ps.window_bytes) /
                          static_cast<double>(window_ns_) * 1000.0;
      ps.bw_series.push_back({end, mbps});
    }
    ps.window_bytes = 0;
    ps.window_start_ns = end;
  }
}

void QosMonitor::record(const queueing::TxRecord& r) {
  assert(r.stream < per_stream_.size());
  PerStream& ps = per_stream_[r.stream];
  const std::uint64_t delay_ns = r.delay_ns();
  if (ps.frames == 0) {
    ps.first_ns = r.arrival_ns;
    ps.window_start_ns = 0;
  } else {
    ps.jitter_sum_ns += delay_ns > ps.last_delay_ns
                            ? delay_ns - ps.last_delay_ns
                            : ps.last_delay_ns - delay_ns;
  }
  // Most departures fall inside the open bandwidth window.
  if (r.departure_ns >= ps.window_start_ns + window_ns_) {
    roll_window(ps, r.departure_ns);
  }
  ps.window_bytes += r.bytes;
  ps.bytes += r.bytes;
  ps.frames += 1;
  ps.last_ns = r.departure_ns;
  ps.delay_sum_ns += delay_ns;
  ps.delay_max_ns = std::max(ps.delay_max_ns, delay_ns);
  ps.last_delay_ns = delay_ns;
  const double delay_us = static_cast<double>(delay_ns) / 1000.0;
  if (keep_series_) ps.delay_series.push_back({r.departure_ns, delay_us});
  if (delay_histogram_) {
    if (!ps.delay_hist) {
      // 0.01 us .. 10 s, 1024 log bins: < 2.3% relative bin width, so the
      // percentile estimate stays within that of the exact series value.
      ps.delay_hist.emplace(0.01, 1e7, 1024, /*log_scale=*/true);
    }
    ps.delay_hist->observe(delay_us);
  }
}

void QosMonitor::finish() {
  for (PerStream& ps : per_stream_) {
    if (ps.frames == 0) continue;
    roll_window(ps, ps.last_ns + window_ns_);
  }
}

double QosMonitor::mean_mbps(std::uint32_t s) const {
  const PerStream& ps = per_stream_[s];
  if (ps.frames == 0 || ps.last_ns <= ps.first_ns) return 0.0;
  return static_cast<double>(ps.bytes) /
         static_cast<double>(ps.last_ns - ps.first_ns) * 1000.0;
}

double QosMonitor::mean_delay_us(std::uint32_t s) const {
  const PerStream& ps = per_stream_[s];
  if (ps.frames == 0) return 0.0;
  return static_cast<double>(ps.delay_sum_ns) /
         static_cast<double>(ps.frames) / 1000.0;
}

double QosMonitor::mean_jitter_us(std::uint32_t s) const {
  const PerStream& ps = per_stream_[s];
  if (ps.frames < 2) return 0.0;
  return static_cast<double>(ps.jitter_sum_ns) /
         static_cast<double>(ps.frames - 1) / 1000.0;
}

double QosMonitor::max_delay_us(std::uint32_t s) const {
  return static_cast<double>(per_stream_[s].delay_max_ns) / 1000.0;
}

double QosMonitor::delay_percentile_us(std::uint32_t s, double p) const {
  const auto& series = per_stream_[s].delay_series;
  if (series.empty()) return 0.0;
  PercentileSampler sampler(series.size());
  for (const auto& d : series) sampler.add(d.delay_us);
  return sampler.percentile(p);
}

double QosMonitor::delay_percentile_est_us(std::uint32_t s, double p) const {
  const auto& hist = per_stream_[s].delay_hist;
  if (!hist) return 0.0;
  return hist->quantile(p);
}

}  // namespace ss::core
