#include "telemetry/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace ss::telemetry {

namespace {

// Rule thresholds.
constexpr double kDelayDriftFactor = 4.0;  ///< p99 vs rolling median p99
constexpr double kDelayFloorUs = 50.0;     ///< ignore drift below this p99
constexpr std::uint64_t kBurnSpike = 50;   ///< per-cause burn growth/window
constexpr std::uint64_t kStallMinDecisions = 64;  ///< decisions w/o a grant
constexpr std::uint64_t kRetrySurge = 32;         ///< retry growth/window

std::string fmt_ctx(const char* rule, const char* detail, double value,
                    double threshold, std::size_t window_polls) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"rule\":\"%s\",\"detail\":\"%s\",\"value\":%.6g,"
                "\"threshold\":%.6g,\"window_polls\":%zu}",
                rule, detail, value, threshold, window_polls);
  return buf;
}

}  // namespace

Watchdog::Watchdog(MetricsRegistry& reg, AuditSession* session,
                   WatchdogConfig cfg)
    : session_(session),
      cfg_(cfg),
      owned_ts_(std::make_unique<TimeSeries>(
          reg, TimeSeriesConfig{cfg.poll_interval,
                                std::max<std::size_t>(cfg.window, 2)})),
      ts_(owned_ts_.get()) {
  init();
}

Watchdog::Watchdog(TimeSeries& ts, AuditSession* session, WatchdogConfig cfg)
    : session_(session), cfg_(cfg), ts_(&ts) {
  init();
}

void Watchdog::init() {
  if (cfg_.window < 2) cfg_.window = 2;
  polls_counter_ = &ts_->registry().counter("watchdog.polls");
  fired_counter_ = &ts_->registry().counter("watchdog.fired");
  observer_token_ = ts_->add_observer([this] { observe(); });
}

Watchdog::~Watchdog() {
  stop();
  ts_->remove_observer(observer_token_);
}

void Watchdog::start() {
  if (running_) return;
  ts_->start();
  running_ = true;
}

void Watchdog::stop() {
  if (!running_) return;
  // The backend's stop() joins the sampler and takes the closing-window
  // sample, which runs one final evaluation through our observer — a
  // short run ending inside the first poll interval is still swept.
  ts_->stop();
  running_ = false;
}

std::optional<std::string> Watchdog::evaluate_once() {
  ts_->sample_once();  // observer runs the rules on this thread
  const std::lock_guard<std::mutex> lock(mu_);
  return last_result_;
}

void Watchdog::observe() {
  // The snapshot just appended was taken before this increment, so the
  // ring's latest poll carries the pre-increment count (the historical
  // deque implementation read, then counted — parity-pinned in tests).
  // Observers run under the TimeSeries sample lock, so polls_ and fired_
  // (written here and in fire()) have one writer at a time.
  single_writer_add(polls_);
  polls_counter_->add(1);
  const std::lock_guard<std::mutex> lock(mu_);
  last_result_ = evaluate_locked();
}

std::optional<std::string> Watchdog::evaluate_locked() {
  const std::size_t w = cfg_.window;
  // Rings are lockstep, so every window() below returns the same n.
  const std::vector<TsPoint> delay = ts_->window("es.frame_delay_us", w);
  const std::size_t n = delay.size();
  if (n < 2) return std::nullopt;
  const auto span = [&](const char* name, std::uint64_t& first,
                        std::uint64_t& last) {
    const std::vector<TsPoint> v = ts_->window(name, w);
    first = v.front().cum;
    last = v.back().cum;
  };
  const auto suppressed = [&](const char* rule) {
    return std::find(fired_rules_.begin(), fired_rules_.end(), rule) !=
           fired_rules_.end();
  };

  // burn_rate_spike: any cause's exact burn counter jumped this window.
  if (!suppressed("burn_rate_spike")) {
    for (std::size_t c = 0; c < kBurnCauses; ++c) {
      std::uint64_t first = 0, last = 0;
      span((std::string("audit.burn.") + burn_cause_name(c)).c_str(), first,
           last);
      const std::uint64_t d = last - first;
      if (d >= kBurnSpike) {
        fire("burn_rate_spike",
             fmt_ctx("burn_rate_spike", burn_cause_name(c),
                     static_cast<double>(d), static_cast<double>(kBurnSpike),
                     n));
        return "burn_rate_spike";
      }
    }
  }

  // grant_rate_stall: decisions tick, backlog exists, no grant emerges.
  if (!suppressed("grant_rate_stall")) {
    std::uint64_t dec_first = 0, dec_last = 0, grants_first = 0,
                  grants_last = 0, enq_first = 0, enq_last = 0, deq_first = 0,
                  deq_last = 0;
    span("chip.decision_cycles", dec_first, dec_last);
    span("chip.grants", grants_first, grants_last);
    span("qm.enqueued", enq_first, enq_last);
    span("qm.dequeued", deq_first, deq_last);
    const std::uint64_t decisions = dec_last - dec_first;
    const std::uint64_t backlog =
        enq_last > deq_last ? enq_last - deq_last : 0;
    if (decisions >= kStallMinDecisions && backlog > 0 &&
        grants_last == grants_first) {
      fire("grant_rate_stall",
           fmt_ctx("grant_rate_stall", "decisions_without_grant",
                   static_cast<double>(decisions),
                   static_cast<double>(kStallMinDecisions), n));
      return "grant_rate_stall";
    }
  }

  // retry_surge: recovery layer suddenly busy.
  if (!suppressed("retry_surge")) {
    std::uint64_t first = 0, last = 0;
    span("robust.retries", first, last);
    const std::uint64_t d = last - first;
    if (d >= kRetrySurge) {
      fire("retry_surge",
           fmt_ctx("retry_surge", "retries", static_cast<double>(d),
                   static_cast<double>(kRetrySurge), n));
      return "retry_surge";
    }
  }

  // delay_quantile_drift: latest p99 leaves the window's median behind.
  // Reads the *cumulative* estimate at each poll — the historical signal
  // — not the interval percentile the time-series layer also carries.
  if (!suppressed("delay_quantile_drift")) {
    std::vector<double> p99s;
    p99s.reserve(n);
    for (const TsPoint& p : delay) p99s.push_back(p.cum_p99);
    const double latest = p99s.back();
    std::sort(p99s.begin(), p99s.end());
    const double median = p99s[p99s.size() / 2];
    if (latest >= kDelayFloorUs && median > 0.0 &&
        latest >= kDelayDriftFactor * median) {
      fire("delay_quantile_drift",
           fmt_ctx("delay_quantile_drift", "p99_us", latest,
                   kDelayDriftFactor * median, n));
      return "delay_quantile_drift";
    }
  }

  return std::nullopt;
}

void Watchdog::fire(const std::string& rule, const std::string& context) {
  fired_rules_.push_back(rule);
  last_rule_ = rule;
  single_writer_add(fired_);
  fired_counter_->add(1);
  if (session_ != nullptr) {
    session_->force_sample();
    session_->set_watchdog_context(context);
    session_->dump("watchdog:" + rule);
  }
}

std::uint64_t Watchdog::polls() const noexcept {
  return polls_.load(std::memory_order_relaxed);
}

std::uint64_t Watchdog::fired() const noexcept {
  return fired_.load(std::memory_order_relaxed);
}

std::string Watchdog::last_rule() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_rule_;
}

}  // namespace ss::telemetry
