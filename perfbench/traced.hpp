// traced.hpp — run outcomes, and the benchmark-side traced drivers.
//
// The traced drivers compose the same public layer calls that
// Endsystem::run / ThreadedEndsystem::run make — QueueManager::produce,
// SchedulerChip::push_request / run_decision_cycle, PciModel::pio_write /
// pio_read, TransmissionEngine::transmit_block, QosMonitor::record,
// TrafficGen::generate — and time each one from outside with
// std::chrono::steady_clock.  The program itself carries no tracing.
// Measured host time and modeled hardware time (Virtex cycles, PCI bus ns)
// are kept in separate fields and never summed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/register_block.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a run did, as far as the equivalence gate and the digest are
/// concerned.  Host timings are deliberately absent.
struct Outcome {
  std::uint64_t offered = 0;      ///< frames handed to the pipeline
  std::uint64_t completed = 0;    ///< transmitted + dropped late
  std::uint64_t dropped_late = 0;
  std::uint64_t spurious = 0;     ///< grants that found an empty ring
  std::uint64_t decisions = 0;
  std::uint64_t committed = 0;    ///< non-idle decision cycles
  std::uint64_t hw_cycles = 0;    ///< modeled Virtex cycles
  std::uint64_t comparisons = 0;  ///< shuffle-network comparisons
  std::uint64_t pci_ns = 0;       ///< modeled PCI bus time
  double delay_p50_us = 0.0;      ///< worst stream, modeled link delay
  double delay_p99_us = 0.0;
  std::vector<std::uint64_t> stream_frames;  ///< transmitted, per stream
  std::vector<ss::hw::SlotCounters> counters;

  /// FNV-1a over per-stream frames, slot counters, delays and totals.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Names of the fields on which `a` and `b` differ (empty = equal).
[[nodiscard]] std::vector<std::string> outcome_diff(const Outcome& a,
                                                    const Outcome& b);

/// Per-layer numbers of one traced rep, keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

struct TracedResult {
  Outcome out;
  double pps = 0.0;  ///< frames / traced drain-loop wall time
  LayerMetrics layers;
  /// Lockstep oracle verdict (empty = agreed on every decision it checked,
  /// or the oracle was not run).
  std::string oracle_error;
  /// Decisions the oracle checked, and the 1-based decision at which the
  /// run left the chip's 16-bit serial horizon (0 = never); the oracle
  /// stops there, since past it chip and oracle need not agree.
  std::uint64_t oracle_checked = 0;
  std::uint64_t oracle_left_horizon_at = 0;
};

/// Traced twin of Endsystem::run on workload `w`.  With `oracle`, a
/// dwcs::ReferenceScheduler receives the same arrivals and must produce
/// the chip's grant slots, drops and idle verdict on every decision.
[[nodiscard]] TracedResult run_traced(const Workload& w, bool oracle);

/// Traced twin of ThreadedEndsystem::run on workload `w`.
[[nodiscard]] TracedResult run_traced_threaded(const Workload& w);

/// Compare one chip decision with the oracle's; returns an empty string
/// on agreement, else a description of the first difference.  Exposed so
/// the benchmark can prove the check fires on a perturbed decision.
struct OracleDecision {
  bool idle = false;
  std::vector<std::uint32_t> grants;
  std::vector<std::uint32_t> drops;
};
[[nodiscard]] std::string compare_decision(const OracleDecision& chip,
                                           const OracleDecision& oracle);

}  // namespace perfbench
