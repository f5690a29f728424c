// linecard.hpp — the ShareStreams switch line-card realization (Figure 2).
//
// "Dual-ported SRAM allows packets arriving from the switch fabric to be
// placed in per-stream SRAM queues.  Their arrival times can be read by
// the SRAM interface concurrently.  Winner Stream IDs are written into the
// SRAM partition by the SRAM interface."  No PCI, no host in the decision
// path — the scheduler runs at its sustained FPGA rate, which is where the
// paper's 7.6 M packets/second (4 slots, Virtex-I) figure comes from.
//
// The functional loop writes arrival times into the dual-ported SRAM on
// the fabric side, runs the chip, and writes winner IDs back; the
// throughput figures come from the cycle counts and the area model's
// clock rate.
#pragma once

#include <cstdint>
#include <memory>

#include "hw/area_model.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/sram.hpp"
#include "hw/timing_model.hpp"

namespace ss::core {

struct LinecardConfig {
  hw::ChipConfig chip{};
  double clock_mhz = 0.0;  ///< 0 = take it from the area model
};

struct LinecardReport {
  std::uint64_t frames = 0;
  std::uint64_t decision_cycles = 0;
  std::uint64_t hw_cycles = 0;
  double clock_mhz = 0.0;
  double seconds = 0.0;          ///< hw_cycles / clock
  double packets_per_sec = 0.0;  ///< frames / seconds
};

class Linecard {
 public:
  explicit Linecard(const LinecardConfig& cfg);

  void load_slot(hw::SlotId slot, const hw::SlotConfig& cfg);

  /// Fabric side: a packet for `slot` arrived; its arrival time lands in
  /// the dual-ported SRAM and the slot's request counter bumps.
  void on_fabric_arrival(hw::SlotId slot, std::uint16_t arrival_offset);

  /// Run decision cycles until `frames` have been granted (assumes the
  /// fabric keeps queues backlogged, the paper's measurement condition).
  LinecardReport run(std::uint64_t frames);

  /// Read back the last winner ID the scheduler wrote to the SRAM
  /// partition (transceiver side).
  [[nodiscard]] std::uint32_t last_winner_id() const;

  [[nodiscard]] const hw::SchedulerChip& chip() const { return *chip_; }
  [[nodiscard]] double clock_mhz() const { return clock_mhz_; }

 private:
  LinecardConfig cfg_;
  std::unique_ptr<hw::SchedulerChip> chip_;
  hw::DualPortedSram sram_;
  double clock_mhz_;
  std::size_t arrivals_written_ = 0;
  std::size_t ids_written_ = 0;
};

}  // namespace ss::core
