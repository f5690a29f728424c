#include "robust/fault_plan.hpp"

#include "telemetry/audit.hpp"

namespace ss::robust {

namespace {
constexpr std::size_t idx(hw::FaultSite s) {
  return static_cast<std::size_t>(s);
}
}  // namespace

hw::FaultDecision FaultPlan::on_transaction(hw::FaultSite site) {
  std::uint32_t rate = 0;
  std::uint64_t penalty_ns = 0;
  switch (site) {
    case hw::FaultSite::kPciWrite:
    case hw::FaultSite::kPciRead:
      rate = prof_.pci_fault_per64k;
      penalty_ns = prof_.pci_timeout_ns;
      break;
    case hw::FaultSite::kSramAcquire:
    case hw::FaultSite::kSramData:
      rate = prof_.sram_fault_per64k;
      penalty_ns = prof_.sram_stall_ns;
      break;
    case hw::FaultSite::kChipDecision:
      rate = prof_.chip_fault_per64k;
      penalty_ns = prof_.chip_stall_ns;
      break;
  }

  bool fault = false;
  const std::size_t i = idx(site);
  if (site == hw::FaultSite::kChipDecision && prof_.chip_fail_after != 0 &&
      ++chip_attempts_ > prof_.chip_fail_after) {
    fault = true;  // hard chip death: every attempt past the threshold
  } else if (burst_left_[i] > 0) {
    --burst_left_[i];
    fault = true;  // continuing an episode
    if (burst_left_[i] == 0) cooldown_[i] = true;
  } else if (cooldown_[i]) {
    // An episode just ended: the next attempt at this site is always
    // clean, so episodes cannot chain into a faulted run longer than
    // max_burst — the invariant that makes "episode within the retry
    // bound" mean "always recovers".
    cooldown_[i] = false;
  } else if (rate > 0 && rng_.below(65536) < rate) {
    // New episode of 1..max_burst consecutive failed attempts.
    const std::uint32_t extra =
        prof_.max_burst > 1
            ? static_cast<std::uint32_t>(rng_.below(prof_.max_burst))
            : 0;
    burst_left_[i] = extra;
    if (extra == 0) cooldown_[i] = true;
    fault = true;
  }
  if (!fault) return {};

  ++injected_[i];
  hw::FaultDecision d;
  d.fault = true;
  d.penalty = Nanos{penalty_ns};
  if (site == hw::FaultSite::kSramData) {
    d.bit = static_cast<unsigned>(rng_.below(32));
  }
  if (metrics_) {
    switch (site) {
      case hw::FaultSite::kPciWrite:
      case hw::FaultSite::kPciRead:
        metrics_->pci_faults->add(1);
        break;
      case hw::FaultSite::kSramAcquire:
      case hw::FaultSite::kSramData:
        metrics_->sram_faults->add(1);
        break;
      case hw::FaultSite::kChipDecision:
        metrics_->chip_faults->add(1);
        break;
    }
  }
  if (audit_) {
    switch (site) {
      case hw::FaultSite::kPciWrite:
      case hw::FaultSite::kPciRead:
        audit_->note_fault(telemetry::AuditSession::FaultSite::kPci);
        break;
      case hw::FaultSite::kSramAcquire:
      case hw::FaultSite::kSramData:
        audit_->note_fault(telemetry::AuditSession::FaultSite::kSram);
        break;
      case hw::FaultSite::kChipDecision:
        audit_->note_fault(telemetry::AuditSession::FaultSite::kChip);
        break;
    }
  }
  return d;
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t n = 0;
  for (const auto v : injected_) n += v;
  return n;
}

}  // namespace ss::robust
