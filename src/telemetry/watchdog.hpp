// watchdog.hpp — anomaly watchdog: rolling-window rules over the shared
// time-series backend that fire the flight recorder.
//
// PR 5 made the black box dump on failover; this layer makes it dump on
// *anomaly*.  A Watchdog evaluates five rules over the last `window`
// intervals of a TimeSeries (the tree's one definition of windowed
// signals — it owns a private sampler when constructed from a bare
// registry, or shares one you already run for the run document):
//
//   burn_rate_spike       any audit.burn.<cause> counter grew by more
//                         than a threshold across the window
//   grant_rate_stall      chip decision cycles kept ticking over the
//                         window, the host rings hold a backlog
//                         (qm.enqueued - qm.dequeued > 0), yet
//                         chip.grants did not move
//   retry_surge           robust.retries grew by more than a threshold
//                         across the window
//   delay_quantile_drift  es.frame_delay_us p99 exceeds a factor of the
//                         window's median p99 (and an absolute floor)
//   inversion_excess      rank.inversions per 100 rank.pops exceeded a
//                         bound (the SP-PIFO approximation degrading)
//
// A firing rule triggers AuditSession::dump with cause
// "watchdog:<rule>", after force-sampling the next decision and
// attaching a window-stats context object that lands in the audit
// section under "watchdog" — the dump says not just *that* the box
// tripped but which rule, on what value, against what threshold.  Each
// rule fires at most once per run (no dump storms); firings are counted
// in watchdog.fired, polls in watchdog.polls.
//
// Metrics a rule needs that the registry does not carry simply disable
// that rule (untracked series read as zero) — the watchdog never
// misfires on absent instrumentation.
//
// Concurrency: the watchdog registers itself as a TimeSeries observer
// and evaluates on the sampling thread after every appended interval.
// start()/stop() drive the backend sampler (idempotent; stop() includes
// the backend's closing-window sample, so a spike in the last window of
// a short run is still caught).  evaluate_once() forces one sample +
// evaluation for deterministic test driving.  When sharing a backend,
// the Watchdog must be destroyed before the TimeSeries stops being
// sampled — its destructor detaches the observer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace ss::telemetry {

/// The rule thresholds are constants in watchdog.cpp.
struct WatchdogConfig {
  std::chrono::milliseconds poll_interval{5};
  std::size_t window = 4;  ///< polls per rolling window (>= 2 to evaluate)
};

class Watchdog {
 public:
  /// Own a private TimeSeries over `reg` (poll_interval/window sized from
  /// `cfg`).  `session` may be null: rules still evaluate and count
  /// firings, but nothing dumps.
  Watchdog(MetricsRegistry& reg, AuditSession* session,
           WatchdogConfig cfg = {});
  /// Evaluate over a TimeSeries you run (and export) yourself — one
  /// sampler, two consumers.  cfg.poll_interval is ignored (the backend's
  /// cadence rules); the rolling window is min(cfg.window, ts capacity).
  Watchdog(TimeSeries& ts, AuditSession* session, WatchdogConfig cfg = {});
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start / stop the backend sampler.  stop() performs the backend's
  /// closing-window sample (one final evaluation) and is idempotent.
  void start();
  void stop();

  /// Force one backend sample + rule evaluation; returns the rule that
  /// fired (first match in the order above), if any.  Thread-safe.
  std::optional<std::string> evaluate_once();

  [[nodiscard]] std::uint64_t polls() const noexcept;
  [[nodiscard]] std::uint64_t fired() const noexcept;
  [[nodiscard]] std::string last_rule() const;
  [[nodiscard]] TimeSeries& timeseries() noexcept { return *ts_; }

 private:
  void init();
  void observe();  ///< TimeSeries observer: count the poll, run the rules
  std::optional<std::string> evaluate_locked();
  void fire(const std::string& rule, const std::string& context);

  AuditSession* session_;
  WatchdogConfig cfg_;
  std::unique_ptr<TimeSeries> owned_ts_;  ///< null when sharing a backend
  TimeSeries* ts_;
  std::size_t observer_token_ = 0;
  Counter* polls_counter_ = nullptr;
  Counter* fired_counter_ = nullptr;

  mutable std::mutex mu_;  ///< guards fired_rules_/last_rule_/last_result_
  std::deque<std::string> fired_rules_;  ///< once-per-run suppression
  std::string last_rule_;
  std::optional<std::string> last_result_;
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> fired_{0};
  bool running_ = false;
};

}  // namespace ss::telemetry
