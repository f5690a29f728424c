// fault_hooks.hpp — the hardware layer's fault-injection seam.
//
// The endsystem realization leans on fragile shared resources: the
// 32-bit/33 MHz PCI path, the arbitrated SRAM bank whose ownership switch
// is "generally the bottleneck for high-performance PCI transfers"
// (Section 5.2), and the FPGA decision datapath itself.  The models in
// this directory are deterministic and infallible by default; an attached
// FaultInjector makes each transaction *fallible* so systems software can
// be exercised against transfer timeouts, arbitration stalls, detected
// bit-flips and decision-cycle hangs.
//
// The interface is abstract so the hw layer stays free of any dependency
// on the recovery subsystem: src/robust/ implements it (a seeded, fully
// deterministic FaultPlan), hw merely consults it.  A model with no
// injector attached pays one null test per transaction.
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace ss::hw {

/// Where in the hardware a transaction is attempted.
enum class FaultSite : std::uint8_t {
  kPciWrite,     ///< programmed-I/O posted write (arrival-offset push)
  kPciRead,      ///< programmed-I/O blocking read (Stream-ID pull)
  kSramAcquire,  ///< bank ownership arbitration
  kSramData,     ///< bank data read (single-event upsets on the array)
  kChipDecision, ///< one scheduler decision cycle
};

/// Verdict for one transaction attempt.
struct FaultDecision {
  bool fault = false;  ///< the attempt fails (timeout / stall / parity)
  Nanos penalty{0};    ///< modeled time lost before the failure is seen
  unsigned bit = 0;    ///< kSramData: which bit of the word was flipped
};

/// Deterministic fault source consulted once per transaction attempt.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultDecision on_transaction(FaultSite site) = 0;
};

/// Result of a fallible timed transaction: `ns` is the time the attempt
/// occupied the resource whether or not it succeeded (a timed-out PCI
/// transfer still held the bus for its timeout).
struct FallibleNanos {
  bool ok = true;
  Nanos ns{0};
};

}  // namespace ss::hw
