#include "hw/sram.hpp"

namespace ss::hw {

SramBank::SramBank(std::size_t words, Nanos ownership_switch_cost)
    : mem_(words, 0), switch_cost_(ownership_switch_cost) {}

Nanos SramBank::acquire(BankOwner who) {
  if (owner_ == who) return Nanos{0};
  owner_ = who;
  ++switches_;
  return switch_cost_;
}

FallibleNanos SramBank::try_acquire(BankOwner who) {
  if (faults_) {
    const FaultDecision d = faults_->on_transaction(FaultSite::kSramAcquire);
    // Arbitration stall: ownership does NOT switch; the requester just
    // burned the stall window and must re-arbitrate.
    if (d.fault) return {false, d.penalty};
  }
  return {true, acquire(who)};
}

SramBank::CheckedRead SramBank::read_checked(BankOwner who,
                                             std::size_t addr) const {
  const std::uint32_t stored = read(who, addr);
  if (faults_) {
    const FaultDecision d = faults_->on_transaction(FaultSite::kSramData);
    if (d.fault) {
      // Transient SEU on the data path: one bit flips in flight, parity
      // catches it.  The array itself is untouched, so a retry succeeds.
      return {false, stored ^ (std::uint32_t{1} << (d.bit % 32u))};
    }
  }
  return {true, stored};
}

void SramBank::check(BankOwner who, std::size_t addr) const {
  if (who != owner_) {
    throw std::logic_error("SramBank: access by non-owner (firmware gates "
                           "the address bus; acquire() first)");
  }
  if (addr >= mem_.size()) {
    throw std::out_of_range("SramBank: address beyond bank");
  }
}

void SramBank::write(BankOwner who, std::size_t addr, std::uint32_t value) {
  check(who, addr);
  mem_[addr] = value;
}

std::uint32_t SramBank::read(BankOwner who, std::size_t addr) const {
  check(who, addr);
  return mem_[addr];
}

DualPortedSram::DualPortedSram(std::size_t words) : mem_(words, 0) {}

void DualPortedSram::write(std::size_t addr, std::uint32_t value) {
  mem_.at(addr) = value;
}

std::uint32_t DualPortedSram::read(std::size_t addr) const {
  return mem_.at(addr);
}

}  // namespace ss::hw
