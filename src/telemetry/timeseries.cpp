#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/json.hpp"

namespace ss::telemetry {

using util::append_double;
using util::json_escape_into;

TimeSeries::TimeSeries(MetricsRegistry& reg, TimeSeriesConfig cfg)
    : reg_(reg), cfg_(cfg), t0_(std::chrono::steady_clock::now()) {
  if (cfg_.capacity < 2) cfg_.capacity = 2;
}

TimeSeries::~TimeSeries() { stop(); }

std::size_t TimeSeries::add_observer(std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(sample_mu_);
  const std::size_t token = next_observer_++;
  observers_.emplace_back(token, std::move(fn));
  return token;
}

void TimeSeries::remove_observer(std::size_t token) {
  std::lock_guard<std::mutex> lk(sample_mu_);
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == token) {
      observers_.erase(it);
      return;
    }
  }
}

std::uint64_t TimeSeries::elapsed_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

std::uint64_t TimeSeries::sample_once() {
  // One sampler at a time: the monitor thread and any manual caller take
  // full turns, and observers see the ring exactly as this sample left it.
  std::lock_guard<std::mutex> sample_lk(sample_mu_);
  const Snapshot snap = reg_.snapshot();
  const std::uint64_t now_ns = elapsed_ns();
  std::uint64_t total;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::uint64_t dt_ns =
        now_ns > last_t_ns_ ? now_ns - last_t_ns_ : 1;  // first: since birth
    append_locked(snap, now_ns, dt_ns);
    last_t_ns_ = now_ns;
    total = ++intervals_;
  }
  for (const auto& [token, fn] : observers_) fn();
  return total;
}

void TimeSeries::append_locked(const Snapshot& snap, std::uint64_t now_ns,
                               std::uint64_t dt_ns) {
  t_ns_.push_back(now_ns);
  const std::size_t len = t_ns_.size();  // rings must end at this length

  for (const Sample& s : snap.samples) {
    Series& ser = series_[s.name];
    if (ser.points.empty()) {
      switch (s.kind) {
        case MetricKind::kCounter: ser.kind = SeriesKind::kCounter; break;
        case MetricKind::kGauge: ser.kind = SeriesKind::kGauge; break;
        case MetricKind::kHistogram: ser.kind = SeriesKind::kHistogram; break;
      }
    }
    // A series registered mid-run backfills zero readings so every ring
    // stays in lockstep with t_ns_ (columnar export, trivial windowing).
    while (ser.points.size() + 1 < len) {
      TsPoint zero;
      zero.t_ns = t_ns_[ser.points.size()];
      ser.points.push_back(zero);
    }

    TsPoint pt;
    pt.t_ns = now_ns;
    const TsPoint* prev = ser.points.empty() ? nullptr : &ser.points.back();
    switch (ser.kind) {
      case SeriesKind::kCounter: {
        pt.cum = s.count;
        const std::uint64_t before = prev != nullptr ? prev->cum : 0;
        // Clamp: registry reset() mid-run can move a counter backwards.
        pt.delta = s.count > before ? s.count - before : 0;
        pt.rate_per_s =
            static_cast<double>(pt.delta) * 1e9 / static_cast<double>(dt_ns);
        break;
      }
      case SeriesKind::kGauge: {
        pt.last = s.gauge;
        pt.max = prev != nullptr ? std::max(prev->max, s.gauge) : s.gauge;
        break;
      }
      case SeriesKind::kHistogram: {
        pt.count_cum = s.count;
        const std::uint64_t before = prev != nullptr ? prev->count_cum : 0;
        pt.count_delta = s.count > before ? s.count - before : 0;
        pt.cum_p50 = s.p50;
        pt.cum_p99 = s.p99;
        // Interval percentiles: the distribution of only this interval's
        // observations, via bin deltas against the previous snapshot.
        if (!s.bin_counts.empty()) {
          std::vector<std::uint64_t> delta(s.bin_counts.size(), 0);
          const bool have_prev = ser.prev_bins.size() == s.bin_counts.size();
          for (std::size_t b = 0; b < s.bin_counts.size(); ++b) {
            const std::uint64_t p = have_prev ? ser.prev_bins[b] : 0;
            delta[b] = s.bin_counts[b] > p ? s.bin_counts[b] - p : 0;
          }
          pt.p50 =
              Histogram::quantile_from_bins(s.bin_edges, delta, 50, s.hist_log);
          pt.p99 =
              Histogram::quantile_from_bins(s.bin_edges, delta, 99, s.hist_log);
          ser.prev_bins = s.bin_counts;
        }
        break;
      }
    }
    ser.points.push_back(pt);
  }

  // Trim every ring (including series that vanished from the snapshot —
  // the registry never deletes, but stay defensive) to capacity.
  while (t_ns_.size() > cfg_.capacity) t_ns_.pop_front();
  for (auto& [name, ser] : series_) {
    while (ser.points.size() > cfg_.capacity) ser.points.pop_front();
  }
}

void TimeSeries::start() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (running_) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run_thread(); });
  running_ = true;
}

void TimeSeries::stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  running_ = false;
  // Closing-window sweep: the tail of a run shorter than one poll
  // interval still lands in the rings (and in the watchdog's rules).
  sample_once();
}

void TimeSeries::run_thread() {
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(cfg_.poll_interval);
    if (stop_.load(std::memory_order_relaxed)) break;
    sample_once();
  }
}

std::size_t TimeSeries::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return t_ns_.size();
}

std::uint64_t TimeSeries::intervals() const {
  std::lock_guard<std::mutex> lk(mu_);
  return intervals_;
}

std::uint64_t TimeSeries::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return intervals_ - t_ns_.size();
}

std::vector<TsPoint> TimeSeries::window(const std::string& name,
                                        std::size_t w) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = std::min(w, t_ns_.size());
  std::vector<TsPoint> out(n);
  const auto it = series_.find(name);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = t_ns_.size() - n + k;
    if (it != series_.end() && idx < it->second.points.size()) {
      out[k] = it->second.points[idx];
    } else {
      out[k].t_ns = t_ns_[idx];  // untracked name: zero readings, real stamps
    }
  }
  return out;
}

bool TimeSeries::kind_of(const std::string& name, SeriesKind& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = series_.find(name);
  if (it == series_.end()) return false;
  out = it->second.kind;
  return true;
}

std::string TimeSeries::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(4096);
  out += "{\"interval_ns\":";
  out += std::to_string(
      std::chrono::duration_cast<std::chrono::nanoseconds>(cfg_.poll_interval)
          .count());
  out += ",\"capacity\":" + std::to_string(cfg_.capacity);
  out += ",\"intervals\":" + std::to_string(intervals_);
  out += ",\"retained\":" + std::to_string(t_ns_.size());
  out += ",\"dropped\":" + std::to_string(intervals_ - t_ns_.size());
  out += ",\"t_ns\":[";
  for (std::size_t k = 0; k < t_ns_.size(); ++k) {
    if (k != 0) out.push_back(',');
    out += std::to_string(t_ns_[k]);
  }
  out += "]";

  // Columnar per-kind sections sharing the t_ns axis.
  for (const SeriesKind kind :
       {SeriesKind::kCounter, SeriesKind::kGauge, SeriesKind::kHistogram}) {
    out += kind == SeriesKind::kCounter    ? ",\"counters\":{"
           : kind == SeriesKind::kGauge    ? ",\"gauges\":{"
                                           : ",\"histograms\":{";
    bool first = true;
    for (const auto& [name, ser] : series_) {
      if (ser.kind != kind) continue;
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      json_escape_into(out, name);
      out += "\":{";
      const auto emit_u64 = [&](const char* field, auto proj) {
        out.push_back('"');
        out += field;
        out += "\":[";
        for (std::size_t k = 0; k < ser.points.size(); ++k) {
          if (k != 0) out.push_back(',');
          out += std::to_string(proj(ser.points[k]));
        }
        out += "]";
      };
      const auto emit_dbl = [&](const char* field, auto proj) {
        out.push_back('"');
        out += field;
        out += "\":[";
        for (std::size_t k = 0; k < ser.points.size(); ++k) {
          if (k != 0) out.push_back(',');
          append_double(out, proj(ser.points[k]));
        }
        out += "]";
      };
      switch (kind) {
        case SeriesKind::kCounter:
          emit_u64("cum", [](const TsPoint& p) { return p.cum; });
          out.push_back(',');
          emit_u64("delta", [](const TsPoint& p) { return p.delta; });
          out.push_back(',');
          emit_dbl("rate_per_s", [](const TsPoint& p) { return p.rate_per_s; });
          break;
        case SeriesKind::kGauge:
          emit_u64("last", [](const TsPoint& p) { return p.last; });
          out.push_back(',');
          emit_u64("max", [](const TsPoint& p) { return p.max; });
          break;
        case SeriesKind::kHistogram:
          emit_u64("count", [](const TsPoint& p) { return p.count_delta; });
          out.push_back(',');
          emit_dbl("p50", [](const TsPoint& p) { return p.p50; });
          out.push_back(',');
          emit_dbl("p99", [](const TsPoint& p) { return p.p99; });
          out.push_back(',');
          emit_dbl("cum_p99", [](const TsPoint& p) { return p.cum_p99; });
          break;
      }
      out += "}";
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string TimeSeries::tail_text(std::size_t k) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  const std::size_t n = std::min(k, t_ns_.size());
  if (n == 0) return "  (no intervals sampled)\n";
  const std::size_t start = t_ns_.size() - n;
  char buf[64];
  std::snprintf(buf, sizeof buf, "  last %zu interval(s), t_ns %llu..%llu\n",
                n, static_cast<unsigned long long>(t_ns_[start]),
                static_cast<unsigned long long>(t_ns_.back()));
  out += buf;
  for (const auto& [name, ser] : series_) {
    if (ser.kind == SeriesKind::kCounter) {
      std::uint64_t growth = 0;
      for (std::size_t i = start; i < ser.points.size(); ++i) {
        growth += ser.points[i].delta;
      }
      if (growth == 0) continue;  // quiet counters add noise, not signal
      out += "  " + name + " rate/s=[";
      for (std::size_t i = start; i < ser.points.size(); ++i) {
        if (i != start) out.push_back(' ');
        append_double(out, ser.points[i].rate_per_s);
      }
      out += "] cum=" + std::to_string(ser.points.back().cum) + "\n";
    } else if (ser.kind == SeriesKind::kHistogram) {
      if (ser.points.back().count_cum == 0) continue;
      out += "  " + name + " p99=[";
      for (std::size_t i = start; i < ser.points.size(); ++i) {
        if (i != start) out.push_back(' ');
        append_double(out, ser.points[i].p99);
      }
      out += "] cum_p99=";
      append_double(out, ser.points.back().cum_p99);
      out += "\n";
    }
  }
  return out;
}

}  // namespace ss::telemetry
