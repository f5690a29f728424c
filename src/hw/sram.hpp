// sram.hpp — on-card memory models.
//
// Two memory systems appear in the paper's realizations:
//
//   * Endsystem (Celoxica RC1000): an 8 MB SRAM organised as banks, each
//     accessible by EITHER the host/PCI peer OR the FPGA at a time, with
//     firmware arbitration.  "The SRAM bank ... needs to switch ownership
//     between FPGA and Stream processor each time a transfer is made,
//     which is generally the bottleneck for high-performance PCI
//     transfers" (Section 5.2) — so the ownership-switch cost is a
//     first-class parameter here.
//   * Linecard (Figure 2): dual-ported SRAM between the switch fabric and
//     the scheduler; both sides access concurrently, partitioned into an
//     arrival-time region and a Stream-ID region.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hw/fault_hooks.hpp"
#include "util/sim_time.hpp"

namespace ss::hw {

enum class BankOwner : std::uint8_t { kHost, kFpga };

/// One arbitrated SRAM bank (word-addressable, 32-bit words).
class SramBank {
 public:
  SramBank(std::size_t words, Nanos ownership_switch_cost);

  /// Request ownership for `who`.  Returns the arbitration latency paid
  /// (zero if `who` already owns the bank).  Counts switches.
  [[nodiscard]] Nanos acquire(BankOwner who);

  [[nodiscard]] BankOwner owner() const { return owner_; }
  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] std::size_t size_words() const { return mem_.size(); }

  /// Accesses check ownership: the firmware gates the address bus, so a
  /// non-owner access is a programming error (throws).
  void write(BankOwner who, std::size_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t read(BankOwner who, std::size_t addr) const;

  /// Attach a fault injector (nullptr detaches).  Only try_acquire and
  /// read_checked consult it; the infallible paths are unchanged.
  void attach_faults(FaultInjector* f) { faults_ = f; }

  /// Fallible arbitration: the firmware arbiter may stall without
  /// switching ownership (the requester pays the penalty and must retry).
  /// On success `ns` is the ordinary switch cost (zero if already owner).
  [[nodiscard]] FallibleNanos try_acquire(BankOwner who);

  /// Parity-checked read: an injected single-event upset flips one bit of
  /// the value *in flight*; the per-word parity bit catches it, so the
  /// caller sees ok=false and retries.  The stored array is never
  /// corrupted — the transient-SEU model, not stuck-at faults.
  struct CheckedRead {
    bool ok = true;
    std::uint32_t value = 0;
  };
  [[nodiscard]] CheckedRead read_checked(BankOwner who,
                                         std::size_t addr) const;

 private:
  void check(BankOwner who, std::size_t addr) const;
  std::vector<std::uint32_t> mem_;
  BankOwner owner_ = BankOwner::kHost;
  Nanos switch_cost_;
  std::uint64_t switches_ = 0;
  FaultInjector* faults_ = nullptr;
};

/// Dual-ported SRAM for the linecard realization: both ports access
/// concurrently, no arbitration.  Partitioned into named regions.
class DualPortedSram {
 public:
  explicit DualPortedSram(std::size_t words);

  void write(std::size_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t read(std::size_t addr) const;

  /// Region bounds for the arrival-time and Stream-ID partitions (the
  /// linecard writes arrivals into the first, the scheduler writes winner
  /// IDs into the second).
  [[nodiscard]] std::size_t arrival_base() const { return 0; }
  [[nodiscard]] std::size_t id_base() const { return mem_.size() / 2; }
  [[nodiscard]] std::size_t size_words() const { return mem_.size(); }

 private:
  std::vector<std::uint32_t> mem_;
};

}  // namespace ss::hw
