// recovery.hpp — the endsystem-side retry/backoff contract.
//
// Every fallible hardware transaction (PCI transfer, SRAM arbitration or
// parity-checked read, chip decision cycle) is driven through with_retry:
// bounded attempts, exponential backoff between them, and an overall
// per-transaction deadline.  The contract the fault campaign asserts is
// simple: an injected fault either *recovers* (a later attempt succeeds
// within the bound) or *exhausts*, and exhaustion is what triggers
// failover — never a silent wrong answer.
#pragma once

#include <algorithm>
#include <cstdint>

#include "hw/fault_hooks.hpp"
#include "robust/health.hpp"
#include "telemetry/instruments.hpp"
#include "util/sim_time.hpp"

namespace ss::robust {

struct RecoveryConfig {
  std::uint32_t max_retries = 8;        ///< attempts beyond the first
  std::uint64_t backoff_base_ns = 200;  ///< delay before the first retry
  double backoff_multiplier = 2.0;
  std::uint64_t backoff_cap_ns = 10'000;
  /// Total modeled time (attempt penalties + backoff) a single
  /// transaction may burn before it is declared exhausted even with
  /// retries remaining.
  std::uint64_t deadline_ns = 200'000;
};

/// The policy every guarded transaction of the pipeline runs under: the
/// scheduler front's decision and SRAM transport, and the endsystem's PCI
/// transfers.
inline constexpr RecoveryConfig kRecoveryPolicy{};

/// Backoff delay before retry number `attempt` (0-based: attempt 0 is the
/// delay after the first failure).
[[nodiscard]] inline std::uint64_t backoff_delay_ns(const RecoveryConfig& cfg,
                                                    std::uint32_t attempt) {
  double d = static_cast<double>(cfg.backoff_base_ns);
  for (std::uint32_t i = 0; i < attempt; ++i) {
    d *= cfg.backoff_multiplier;
    if (d >= static_cast<double>(cfg.backoff_cap_ns)) {
      return cfg.backoff_cap_ns;
    }
  }
  return std::min(static_cast<std::uint64_t>(d), cfg.backoff_cap_ns);
}

/// Recovery activity, accumulated across all guarded transactions.
struct RecoveryStats {
  std::uint64_t faults = 0;      ///< failed attempts observed
  std::uint64_t retries = 0;     ///< re-attempts issued
  std::uint64_t recoveries = 0;  ///< transactions that succeeded after >=1 fault
  std::uint64_t exhausted = 0;   ///< transactions that hit the retry bound
  std::uint64_t failovers = 0;   ///< hardware abandoned for software
  std::uint64_t backoff_ns = 0;  ///< modeled time spent backing off
};

struct RetryResult {
  bool ok = false;
  Nanos elapsed{0};  ///< attempt penalties + successful cost + backoff
};

/// Drive one fallible transaction to completion or exhaustion.  `attempt`
/// is called repeatedly and must return hw::FallibleNanos; `health` and
/// `metrics` may be null.
template <typename F>
RetryResult with_retry(const RecoveryConfig& cfg, RecoveryStats& stats,
                       HealthMonitor* health,
                       telemetry::RobustMetrics* metrics, F&& attempt) {
  std::uint64_t total = 0;
  for (std::uint32_t a = 0;; ++a) {
    const hw::FallibleNanos r = attempt();
    total += count(r.ns);
    if (r.ok) {
      if (health) health->on_clean();
      if (a > 0) {
        ++stats.recoveries;
        if (metrics) metrics->recoveries->add(1);
      }
      return {true, Nanos{total}};
    }
    ++stats.faults;
    if (health) health->on_fault();
    if (a >= cfg.max_retries || total >= cfg.deadline_ns) {
      ++stats.exhausted;
      if (metrics) metrics->retry_exhausted->add(1);
      return {false, Nanos{total}};
    }
    const std::uint64_t delay = backoff_delay_ns(cfg, a);
    total += delay;
    stats.backoff_ns += delay;
    ++stats.retries;
    if (metrics) {
      metrics->retries->add(1);
      metrics->backoff_ns->add(delay);
    }
  }
}

}  // namespace ss::robust
