// guarded_scheduler.hpp — the scheduler front every drain loop calls.
//
// Endsystem, ThreadedEndsystem and the differential executor load, push
// and decide only through a GuardedScheduler; fault tolerance is set by
// the fault plan it is built with.  Without a plan (the fault-free
// default) the guard is the plain chip: each call forwards to
// hw::SchedulerChip, no shadow is kept, and force_failover() throws.
//
// With a plan, the guard keeps a software dwcs::ReferenceScheduler
// *shadow* in lockstep with the chip: every load, every request push and
// every decision cycle is mirrored.  The shadow's semantics are
// bit-identical to the chip's within the serial horizon (that equivalence
// is exactly what the differential fuzz campaigns assert), so when the
// hardware path exhausts its retry budget the guard can fail over mid-run
// — the shadow already holds the chip's state, no queued request is
// dropped, and the grant sequence continues exactly where the hardware
// would have taken it.
//
// Every fallible step runs under robust::kRecoveryPolicy.  Decision path
// with a plan, per cycle:
//   1. (optional transport model) FPGA acquires the SRAM bank — retried
//      across arbitration stalls.
//   2. Chip decision cycle — retried across injected stalls; the fallible
//      chip attempt mutates nothing on failure, so retry is trivially
//      safe.
//   3. Shadow decision cycle (lockstep mirror).
//   4. (optional transport model) host re-acquires the bank and
//      parity-reads the grant words — SEUs are retried.
// Any step exhausting its retries triggers failover; steps 1-2 exhaust
// *before* the decision, so the shadow serves the current cycle, while
// step 4 exhausts after it, so the chip's outcome stands and the shadow
// serves from the next cycle on.
#pragma once

#include <cstdint>
#include <optional>

#include "dwcs/reference_scheduler.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/sram.hpp"
#include "robust/fault_plan.hpp"
#include "robust/health.hpp"
#include "robust/recovery.hpp"
#include "telemetry/instruments.hpp"

namespace ss::robust {

class GuardedScheduler {
 public:
  /// The chip is held by reference (the caller owns it); `plan` may be
  /// null for a guard with the fault plane disabled, which is then the
  /// plain chip.  `model_transport` models the decision's SRAM transport
  /// (ownership handoffs + parity reads) so the kSramAcquire/kSramData
  /// fault sites are exercised; only a guard with a fault plan models it.
  /// Construct the guard before loading any slots: with a plan it
  /// pre-populates one shadow stream per chip slot so load_slot maps onto
  /// reload_stream.
  GuardedScheduler(hw::SchedulerChip& chip, FaultPlan* plan,
                   bool model_transport = false);

  void load_slot(hw::SlotId slot, const hw::SlotConfig& hw_cfg,
                 const dwcs::StreamSpec& sw_spec);
  void push_request(hw::SlotId slot, std::uint64_t arrival);
  void push_tagged_request(hw::SlotId slot, std::uint64_t tag,
                           std::uint64_t arrival);

  /// One decision cycle through whichever path is currently healthy (the
  /// chip's own when there is no plan).  Post-failover, `block` mirrors
  /// `grants` (the software path has no separate block readout) and
  /// hw_cycles is 0.
  hw::DecisionOutcome run_decision_cycle();

  /// Allocation-free variant (`out` fully overwritten) — mirrors the
  /// chip's reuse overload for the endsystem hot loop.
  void run_decision_cycle(hw::DecisionOutcome& out);

  /// Abandon the hardware path now (operator-initiated failover, or the
  /// legacy inject_fault_at_grant contract).  Throws std::logic_error on
  /// a guard without a fault plan: it has no shadow to fail over to.
  void force_failover();

  [[nodiscard]] bool failed_over() const { return failed_over_; }
  [[nodiscard]] HealthState health() const { return health_.state(); }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  /// Modeled time lost to faults: attempt penalties + backoff + transport.
  [[nodiscard]] Nanos overhead_ns() const { return overhead_; }

  /// Authoritative scheduler state: the chip's until failover, the
  /// shadow's after (they are equal at the handoff by construction).
  [[nodiscard]] std::uint64_t vtime() const;
  /// Decisions served through the guard on either path.  (The shadow
  /// steps on every cycle, so its counter spans the failover seamlessly.)
  [[nodiscard]] std::uint64_t decision_cycles() const {
    return shadow_ ? shadow_->decision_cycles() : chip_.decision_cycles();
  }
  [[nodiscard]] dwcs::StreamCounters counters(std::uint32_t slot) const;
  [[nodiscard]] std::uint32_t backlog(std::uint32_t slot) const;

  /// Attach live metrics (nullptr detaches); forwards to the health FSM
  /// and the fault plan.
  void attach_metrics(telemetry::RobustMetrics* m);

  /// Attach a decision-audit session (nullptr detaches); forwards to the
  /// chip (provenance + flight recorder) and the fault plan (fault
  /// context).  force_failover() then freezes the black box: the recorder
  /// stops at the failover point and the session dumps its audit section
  /// with cause "failover".
  void attach_audit(telemetry::AuditSession* a);

 private:
  void shadow_decide(hw::DecisionOutcome& out);

  hw::SchedulerChip& chip_;
  FaultPlan* plan_;
  bool model_transport_;
  std::optional<dwcs::ReferenceScheduler> shadow_;  ///< engaged iff plan_
  hw::SramBank sram_;
  RecoveryStats stats_;
  HealthMonitor health_;
  bool failed_over_ = false;
  Nanos overhead_{0};
  telemetry::RobustMetrics* metrics_ = nullptr;
  telemetry::AuditSession* audit_ = nullptr;
};

}  // namespace ss::robust
