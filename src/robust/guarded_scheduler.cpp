#include "robust/guarded_scheduler.hpp"

#include <stdexcept>

#include "dwcs/modes.hpp"
#include "telemetry/audit.hpp"

namespace ss::robust {

// The software oracle's OrderRule must mirror the hardware Rule values so
// cross-layer provenance (audit rule indices) means the same thing on
// both decision paths.
static_assert(static_cast<int>(dwcs::OrderRule::kPendingOnly) ==
              static_cast<int>(hw::Rule::kPendingOnly));
static_assert(static_cast<int>(dwcs::OrderRule::kDeadline) ==
              static_cast<int>(hw::Rule::kDeadline));
static_assert(static_cast<int>(dwcs::OrderRule::kWindowConstraint) ==
              static_cast<int>(hw::Rule::kWindowConstraint));
static_assert(static_cast<int>(dwcs::OrderRule::kZeroDenominator) ==
              static_cast<int>(hw::Rule::kZeroDenominator));
static_assert(static_cast<int>(dwcs::OrderRule::kNumerator) ==
              static_cast<int>(hw::Rule::kNumerator));
static_assert(static_cast<int>(dwcs::OrderRule::kFcfsArrival) ==
              static_cast<int>(hw::Rule::kFcfsArrival));
static_assert(static_cast<int>(dwcs::OrderRule::kIdTieBreak) ==
              static_cast<int>(hw::Rule::kIdTieBreak));

namespace {

// The modeled SRAM bank the transport hands between FPGA and host.
constexpr std::size_t kSramWords = 64;
constexpr std::uint64_t kSramSwitchNs = 2000;

}  // namespace

GuardedScheduler::GuardedScheduler(hw::SchedulerChip& chip, FaultPlan* plan,
                                   bool model_transport)
    : chip_(chip),
      plan_(plan),
      model_transport_(model_transport),
      sram_(kSramWords, Nanos{kSramSwitchNs}) {
  if (!plan_) return;
  shadow_.emplace(dwcs::reference_options(chip_.config()));
  for (unsigned i = 0; i < chip_.config().slots; ++i) {
    shadow_->add_stream({});
  }
  chip_.attach_faults(plan_);
  sram_.attach_faults(plan_);
}

void GuardedScheduler::attach_metrics(telemetry::RobustMetrics* m) {
  metrics_ = m;
  health_.attach_metrics(m);
  if (plan_) plan_->attach_metrics(m);
}

void GuardedScheduler::attach_audit(telemetry::AuditSession* a) {
  audit_ = a;
  chip_.attach_audit(a);
  if (plan_) plan_->attach_audit(a);
}

void GuardedScheduler::load_slot(hw::SlotId slot,
                                 const hw::SlotConfig& hw_cfg,
                                 const dwcs::StreamSpec& sw_spec) {
  if (!failed_over_) chip_.load_slot(slot, hw_cfg);
  if (shadow_) shadow_->reload_stream(slot, sw_spec);
}

void GuardedScheduler::push_request(hw::SlotId slot, std::uint64_t arrival) {
  if (!failed_over_) chip_.push_request(slot, hw::Arrival{arrival});
  if (shadow_) shadow_->push_request(slot, arrival);
}

void GuardedScheduler::push_tagged_request(hw::SlotId slot, std::uint64_t tag,
                                           std::uint64_t arrival) {
  if (!failed_over_) {
    chip_.push_tagged_request(slot, hw::Deadline{tag}, hw::Arrival{arrival});
  }
  if (shadow_) shadow_->push_tagged_request(slot, tag, arrival);
}

void GuardedScheduler::force_failover() {
  if (!plan_) {
    throw std::logic_error(
        "GuardedScheduler::force_failover: no fault plan, so no shadow to "
        "fail over to");
  }
  if (failed_over_) return;
  failed_over_ = true;
  ++stats_.failovers;
  health_.on_failover();
  if (metrics_) metrics_->failovers->add(1);
  // Black-box dump: the chip no longer runs after this point, so the
  // flight recorder is frozen exactly at the state that led here.  This
  // one hook also covers retry exhaustion — every exhaustion path calls
  // force_failover().
  if (audit_ != nullptr) {
    audit_->set_health(static_cast<std::uint8_t>(health_.state()));
    // Always-sample override: should any further decision run through
    // the session (software-path harnesses), it carries full provenance.
    audit_->force_sample();
    audit_->dump("failover");
  }
}

void GuardedScheduler::shadow_decide(hw::DecisionOutcome& out) {
  const dwcs::SwDecision sd = shadow_->run_decision_cycle();
  out.idle = sd.idle;
  out.circulated.reset();
  out.grants.clear();
  out.block.clear();
  out.drops.clear();
  if (sd.circulated) {
    out.circulated = static_cast<hw::SlotId>(*sd.circulated);
  }
  out.grants.reserve(sd.grants.size());
  for (const auto& g : sd.grants) {
    out.grants.push_back({static_cast<hw::SlotId>(g.stream), g.emit_vtime,
                          g.met_deadline});
  }
  if (chip_.config().block_mode) {
    out.block.reserve(sd.grants.size());
    for (const auto& g : sd.grants) {
      out.block.push_back(static_cast<hw::SlotId>(g.stream));
    }
  }
  out.drops.reserve(sd.drops.size());
  for (const auto d : sd.drops) {
    out.drops.push_back(static_cast<hw::SlotId>(d));
  }
  out.hw_cycles = 0;  // software path: no FPGA cycles burned
}

hw::DecisionOutcome GuardedScheduler::run_decision_cycle() {
  hw::DecisionOutcome out;
  run_decision_cycle(out);
  return out;
}

void GuardedScheduler::run_decision_cycle(hw::DecisionOutcome& out) {
  if (!plan_) return chip_.run_decision_cycle(out);
  if (failed_over_) return shadow_decide(out);

  // Publish the current health FSM state so the decision record committed
  // this cycle carries it.
  if (audit_ != nullptr) {
    audit_->set_health(static_cast<std::uint8_t>(health_.state()));
  }

  // 1. Hand the SRAM bank to the FPGA so it can read this cycle's
  //    arrival records.
  if (model_transport_) {
    const RetryResult hand =
        with_retry(kRecoveryPolicy, stats_, &health_, metrics_,
                   [&] { return sram_.try_acquire(hw::BankOwner::kFpga); });
    overhead_ += hand.elapsed;
    if (!hand.ok) {
      force_failover();
      return shadow_decide(out);
    }
  }

  // 2. The decision cycle itself.  A stalled attempt mutates no chip
  //    state, so retrying is safe; exhaustion here means the shadow can
  //    serve this very cycle (it has not stepped yet).
  const RetryResult dec =
      with_retry(kRecoveryPolicy, stats_, &health_, metrics_, [&] {
        return hw::FallibleNanos{chip_.try_run_decision_cycle(out), Nanos{0}};
      });
  overhead_ += dec.elapsed;
  if (!dec.ok) {
    force_failover();
    return shadow_decide(out);
  }

  // 3. Lockstep mirror: the shadow executes the same cycle so a later
  //    failover hands over without losing a single queued request.
  (void)shadow_->run_decision_cycle();

  // 4. Host takes the bank back and parity-reads the grant words.  The
  //    decision already happened on both paths, so exhaustion here only
  //    affects *future* cycles: return the chip's outcome, fail over for
  //    the next one.
  if (model_transport_) {
    const RetryResult back =
        with_retry(kRecoveryPolicy, stats_, &health_, metrics_,
                   [&] { return sram_.try_acquire(hw::BankOwner::kHost); });
    overhead_ += back.elapsed;
    if (!back.ok) {
      force_failover();
      return;
    }
    for (std::size_t g = 0; g < out.grants.size(); ++g) {
      const RetryResult rd =
          with_retry(kRecoveryPolicy, stats_, &health_, metrics_, [&] {
            const hw::SramBank::CheckedRead cr = sram_.read_checked(
                hw::BankOwner::kHost, g % sram_.size_words());
            return hw::FallibleNanos{cr.ok, Nanos{0}};
          });
      overhead_ += rd.elapsed;
      if (!rd.ok) {
        force_failover();
        return;
      }
    }
  }
}

std::uint64_t GuardedScheduler::vtime() const {
  return failed_over_ ? shadow_->vtime() : chip_.vtime();
}

dwcs::StreamCounters GuardedScheduler::counters(std::uint32_t slot) const {
  if (failed_over_) return shadow_->stream(slot).counters;
  const auto& c = chip_.slot(static_cast<hw::SlotId>(slot)).counters();
  return {c.missed_deadlines, c.violations, c.serviced, c.late_transmissions,
          c.winner_cycles};
}

std::uint32_t GuardedScheduler::backlog(std::uint32_t slot) const {
  return failed_over_ ? shadow_->stream(slot).backlog
                      : chip_.slot(static_cast<hw::SlotId>(slot)).backlog();
}

}  // namespace ss::robust
