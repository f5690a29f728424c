// dma.hpp — the card's DMA "pull" engine.
//
// For bulk transfers the Stream processor sets the DMA engine registers
// and asserts the pull-start line; bank ownership is arbitrated to the
// card, the burst streams over PCI, and ownership returns (Section 4.2,
// "The ShareStreams Hardware and Streaming Unit").  This class composes
// the PCI burst model with the SRAM bank arbitration so the Streaming
// unit can account both costs in one call.
#pragma once

#include <cstdint>

#include "hw/pci.hpp"
#include "hw/sram.hpp"

namespace ss::hw {

class DmaEngine {
 public:
  DmaEngine(PciModel& pci, SramBank& bank) : pci_(pci), bank_(bank) {}

  /// Pull `bytes` from host memory into the bank (arrival-time batches).
  /// Returns total latency: bank acquisition by the card + PCI burst +
  /// bank release back to the FPGA side consumer.
  [[nodiscard]] Nanos pull_to_card(std::size_t bytes);

  /// Push `bytes` from the bank to host memory (scheduled Stream IDs).
  [[nodiscard]] Nanos push_to_host(std::size_t bytes);

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  PciModel& pci_;
  SramBank& bank_;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_moved_ = 0;
};

}  // namespace ss::hw
