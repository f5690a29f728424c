// health.hpp — the endsystem's hardware-health FSM.
//
//   HEALTHY --fault--> DEGRADED --exhaustion--> FAILED_OVER (sticky)
//      ^                   |
//      +--- N clean txns --+
//
// DEGRADED means faults have been observed but every transaction still
// completed within its retry bound; a streak of clean transactions earns
// the way back to HEALTHY.  FAILED_OVER is terminal for the run: the
// hardware path is abandoned and the software scheduler serves all
// further decisions.
#pragma once

#include <cstdint>

#include "telemetry/instruments.hpp"

namespace ss::robust {

enum class HealthState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kFailedOver = 2,
};

class HealthMonitor {
 public:
  struct Options {
    /// Consecutive clean transactions that promote DEGRADED back to
    /// HEALTHY.
    std::uint32_t clean_to_recover = 16;
  };

  HealthMonitor() = default;
  explicit HealthMonitor(Options opt) : opt_(opt) {}

  /// Attach live metrics (nullptr detaches); publishes the current state
  /// to the robust.health gauge immediately.
  void attach_metrics(telemetry::RobustMetrics* m) {
    metrics_ = m;
    publish();
  }

  void on_fault() {
    clean_streak_ = 0;
    if (state_ == HealthState::kHealthy) {
      state_ = HealthState::kDegraded;
      ++transitions_;
      publish();
    }
  }

  void on_clean() {
    if (state_ != HealthState::kDegraded) return;
    if (++clean_streak_ >= opt_.clean_to_recover) {
      state_ = HealthState::kHealthy;
      clean_streak_ = 0;
      ++transitions_;
      publish();
    }
  }

  void on_failover() {
    if (state_ == HealthState::kFailedOver) return;
    state_ = HealthState::kFailedOver;
    ++transitions_;
    publish();
  }

  [[nodiscard]] HealthState state() const { return state_; }
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

 private:
  void publish() {
    if (metrics_) {
      metrics_->health->set(static_cast<std::int64_t>(state_));
    }
  }

  Options opt_{};
  HealthState state_ = HealthState::kHealthy;
  std::uint32_t clean_streak_ = 0;
  std::uint64_t transitions_ = 0;
  telemetry::RobustMetrics* metrics_ = nullptr;
};

}  // namespace ss::robust
