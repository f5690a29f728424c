// fault_plan.hpp — the seeded, deterministic fault source.
//
// A FaultPlan implements hw::FaultInjector: attached to the PCI model, an
// SRAM bank and the scheduler chip, it decides — purely from its seed and
// the sequence of transaction attempts — which attempts fail.  Faults
// arrive in short *episodes* (1..max_burst consecutive failed attempts at
// one site), modeling a stuck arbiter or a noisy bus window rather than
// independent coin flips; an episode shorter than the recovery policy's
// retry bound therefore always recovers, and one longer always exhausts.
//
// All profile knobs are integers (rates are per-65536 fixed point) so a
// profile round-trips exactly through the ssfuzz-v1 text format.
#pragma once

#include <array>
#include <cstdint>

#include "hw/fault_hooks.hpp"
#include "telemetry/instruments.hpp"
#include "util/rng.hpp"

namespace ss::telemetry {
class AuditSession;
}  // namespace ss::telemetry

namespace ss::robust {

/// Everything that determines the fault sequence.  seed == 0 disables the
/// plane entirely (no injector is attached anywhere).
struct FaultProfile {
  std::uint64_t seed = 0;             ///< 0 = fault plane disabled
  std::uint32_t pci_fault_per64k = 0; ///< per-attempt fault rate, x/65536
  std::uint32_t sram_fault_per64k = 0;
  std::uint32_t chip_fault_per64k = 0;
  std::uint32_t max_burst = 2;        ///< episode length is 1..max_burst
  std::uint64_t pci_timeout_ns = 1200;  ///< bus held until master-abort
  std::uint64_t sram_stall_ns = 2000;   ///< arbitration stall window
  std::uint64_t chip_stall_ns = 500;    ///< decision-cycle hang window
  /// Hard chip death: after this many decision-cycle attempts every
  /// further attempt faults, forcing failover.  0 = never.
  std::uint64_t chip_fail_after = 0;

  [[nodiscard]] bool enabled() const { return seed != 0; }
  friend bool operator==(const FaultProfile&, const FaultProfile&) = default;
};

class FaultPlan final : public hw::FaultInjector {
 public:
  explicit FaultPlan(const FaultProfile& profile)
      : prof_(profile), rng_(profile.seed) {}

  hw::FaultDecision on_transaction(hw::FaultSite site) override;

  /// Attach live metrics (nullptr detaches): per-site injected-fault
  /// counters (robust.faults.{pci,sram,chip}).
  void attach_metrics(telemetry::RobustMetrics* m) { metrics_ = m; }

  /// Attach a decision-audit session (nullptr detaches): every injected
  /// fault is noted at injection time so the decision it stalls is
  /// classified as a fault-induced burn and the dump carries per-site
  /// fault counts.
  void attach_audit(telemetry::AuditSession* a) { audit_ = a; }

  [[nodiscard]] const FaultProfile& profile() const { return prof_; }
  [[nodiscard]] std::uint64_t injected(hw::FaultSite site) const {
    return injected_[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] std::uint64_t total_injected() const;

 private:
  FaultProfile prof_;
  Rng rng_;
  /// Remaining faulted attempts in the current episode, per site.
  std::array<std::uint32_t, 5> burst_left_{};
  /// Set when an episode ends: the next attempt at the site is forced
  /// clean, so episodes can never chain past max_burst.
  std::array<bool, 5> cooldown_{};
  std::array<std::uint64_t, 5> injected_{};
  std::uint64_t chip_attempts_ = 0;
  telemetry::RobustMetrics* metrics_ = nullptr;
  telemetry::AuditSession* audit_ = nullptr;
};

}  // namespace ss::robust
