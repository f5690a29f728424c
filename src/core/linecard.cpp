#include "core/linecard.hpp"

#include <cassert>

namespace ss::core {

namespace {

// Words of dual-ported SRAM: half arrival partition, half winner IDs.
constexpr std::size_t kSramWords = 1 << 16;

}  // namespace

Linecard::Linecard(const LinecardConfig& cfg)
    : cfg_(cfg),
      chip_(std::make_unique<hw::SchedulerChip>(cfg.chip)),
      sram_(kSramWords),
      clock_mhz_(cfg.clock_mhz) {
  if (clock_mhz_ <= 0.0) {
    const hw::AreaModel area;
    clock_mhz_ = area.clock_mhz(cfg.chip.slots,
                                cfg.chip.block_mode
                                    ? hw::ArchConfig::kBlockArchitecture
                                    : hw::ArchConfig::kWinnerRouting);
    // The RC1000 prototype clocks designs "up to 100 MHz"; small designs
    // are capped by the card, not the fabric.
    clock_mhz_ = std::min(clock_mhz_, 100.0);
  }
}

void Linecard::load_slot(hw::SlotId slot, const hw::SlotConfig& slot_cfg) {
  chip_->load_slot(slot, slot_cfg);
}

void Linecard::on_fabric_arrival(hw::SlotId slot,
                                 std::uint16_t arrival_offset) {
  // Fabric port writes the arrival time into the arrival partition; the
  // scheduler port reads it concurrently (dual-ported, no arbitration).
  const std::size_t addr =
      sram_.arrival_base() + (arrivals_written_ % (sram_.size_words() / 2));
  sram_.write(addr, (static_cast<std::uint32_t>(slot) << 16) |
                        arrival_offset);
  ++arrivals_written_;
  chip_->push_request(slot, hw::Arrival{arrival_offset});
}

LinecardReport Linecard::run(std::uint64_t frames) {
  LinecardReport rep{};
  const std::uint64_t hw0 = chip_->hw_cycles();
  const std::uint64_t dec0 = chip_->decision_cycles();
  std::uint64_t granted = 0;
  while (granted < frames) {
    const hw::DecisionOutcome out = chip_->run_decision_cycle();
    if (out.idle) break;  // fabric stopped feeding us
    for (const hw::Grant& g : out.grants) {
      const std::size_t addr =
          sram_.id_base() + (ids_written_ % (sram_.size_words() / 2));
      sram_.write(addr, g.slot);
      ++ids_written_;
      ++granted;
    }
  }
  rep.frames = granted;
  rep.hw_cycles = chip_->hw_cycles() - hw0;
  rep.decision_cycles = chip_->decision_cycles() - dec0;
  rep.clock_mhz = clock_mhz_;
  rep.seconds = static_cast<double>(rep.hw_cycles) / (clock_mhz_ * 1e6);
  rep.packets_per_sec =
      rep.seconds > 0 ? static_cast<double>(granted) / rep.seconds : 0.0;
  return rep;
}

std::uint32_t Linecard::last_winner_id() const {
  assert(ids_written_ > 0);
  const std::size_t addr =
      sram_.id_base() + ((ids_written_ - 1) % (sram_.size_words() / 2));
  return sram_.read(addr);
}

}  // namespace ss::core
