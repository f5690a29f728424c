#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace ss::telemetry {

namespace {

using util::append_double;
using util::json_escape_into;

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins, bool log_scale)
    : lo_(lo),
      hi_(hi),
      log_(log_scale),
      origin_(log_scale ? std::log(lo) : lo),
      counts_(bins == 0 ? 1 : bins) {
  assert(hi > lo && bins > 0 && (!log_scale || lo > 0.0));
  width_ = ((log_ ? std::log(hi_) : hi_) - origin_) /
           static_cast<double>(counts_.size());
}

std::size_t Histogram::index_of(double x) noexcept {
  if (!(x > lo_)) return 0;  // at or below lo (or NaN): the first bin
  const std::size_t last = counts_.size() - 1;
  if (x >= hi_) return last;
  const double t = log_ ? std::log(x) : x;
  // min: a value just under hi_ can round onto the edge.
  const std::size_t b =
      std::min(static_cast<std::size_t>((t - origin_) / width_), last);
  if (log_) {
    constexpr double kMargin = 1e-9;
    cache_bin_ = b;
    cache_lo_ = bin_lo(b) * (1.0 + kMargin);
    cache_hi_ = bin_lo(b + 1) * (1.0 - kMargin);
  }
  return b;
}

void Histogram::observe(double x) noexcept {
  // Same-bin fast path (log bins): consecutive latency samples usually
  // differ by far less than one bin, so test the cached bin's value range
  // before paying std::log.  The margins keep that range strictly inside
  // the bin, so a hit agrees with index_of's floor division; samples in
  // the margin slivers take the exact slow path.
  const std::size_t b =
      x >= cache_lo_ && x < cache_hi_ ? cache_bin_ : index_of(x);
  single_writer_add(counts_[b].v);
  single_writer_add(count_);
  sum_.store(sum_.load(std::memory_order_relaxed) + x,
             std::memory_order_relaxed);
}

double Histogram::bin_lo(std::size_t b) const noexcept {
  const double t = origin_ + static_cast<double>(b) * width_;
  return log_ ? std::exp(t) : t;
}

double Histogram::quantile_from_bins(const std::vector<double>& edges,
                                     const std::vector<std::uint64_t>& counts,
                                     double p, bool log_scale) {
  if (counts.empty() || edges.size() != counts.size() + 1) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const auto before = static_cast<double>(cum);
    cum += counts[b];
    if (static_cast<double>(cum) >= rank) {
      const double frac = std::clamp(
          (rank - before) / static_cast<double>(counts[b]), 0.0, 1.0);
      if (log_scale) {
        const double llo = std::log(edges[b]);
        const double lhi = std::log(edges[b + 1]);
        return std::exp(llo + frac * (lhi - llo));
      }
      return edges[b] + frac * (edges[b + 1] - edges[b]);
    }
  }
  return edges[counts.size()];
}

double Histogram::quantile(double p) const {
  // Copy the bins once so the walk sees one coherent set even while
  // observe() keeps running.
  std::vector<std::uint64_t> c(counts_.size());
  std::vector<double> edges(counts_.size() + 1);
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    c[b] = counts_[b].v.load(std::memory_order_relaxed);
    edges[b] = bin_lo(b);
  }
  edges[counts_.size()] = bin_lo(counts_.size());
  return quantile_from_bins(edges, c, p, log_);
}

void Histogram::reset() noexcept {
  for (AtomicCell& cell : counts_) {
    cell.v.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t bins,
                                      bool log_scale) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lo, hi, bins, log_scale);
  return *slot;
}

Snapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [name, c] : counters_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.count = c->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.gauge = g->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    Sample s;
    s.name = name;
    s.kind = MetricKind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.hist_log = h->log_scale();
    const std::size_t nb = h->bins();
    s.bin_edges.resize(nb + 1);
    s.bin_counts.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      s.bin_edges[b] = h->bin_lo(b);
      s.bin_counts[b] = h->bin_count(b);
    }
    s.bin_edges[nb] = h->bin_lo(nb);
    s.p50 = Histogram::quantile_from_bins(s.bin_edges, s.bin_counts, 50.0,
                                          s.hist_log);
    s.p90 = Histogram::quantile_from_bins(s.bin_edges, s.bin_counts, 90.0,
                                          s.hist_log);
    s.p99 = Histogram::quantile_from_bins(s.bin_edges, s.bin_counts, 99.0,
                                          s.hist_log);
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  char buf[64];
  bool first = true;
  for (const Sample& s : samples) {
    if (s.kind != MetricKind::kCounter) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json_escape_into(out, s.name);
    std::snprintf(buf, sizeof buf, "\":%llu",
                  static_cast<unsigned long long>(s.count));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const Sample& s : samples) {
    if (s.kind != MetricKind::kGauge) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json_escape_into(out, s.name);
    std::snprintf(buf, sizeof buf, "\":%lld",
                  static_cast<long long>(s.gauge));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Sample& s : samples) {
    if (s.kind != MetricKind::kHistogram) continue;
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    json_escape_into(out, s.name);
    std::snprintf(buf, sizeof buf, "\":{\"count\":%llu,\"sum\":",
                  static_cast<unsigned long long>(s.count));
    out += buf;
    append_double(out, s.sum);
    out += ",\"p50\":";
    append_double(out, s.p50);
    out += ",\"p90\":";
    append_double(out, s.p90);
    out += ",\"p99\":";
    append_double(out, s.p99);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace ss::telemetry
