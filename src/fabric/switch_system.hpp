// switch_system.hpp — a complete multi-port switch built around
// ShareStreams line cards.
//
// The composition the paper's Figure 2 assumes but does not build:
// frames enter at input ports, the FlowTable classifies them to an
// (output port, stream-slot), the Crossbar moves them to the output, and
// each output port runs a ShareStreams scheduler (cycle-level chip over
// dual-ported SRAM, exactly the Linecard realization) that picks which
// per-stream queue transmits each packet-time on that port's transceiver.
//
// One fabric cycle == one packet-time on the output links (uniform frame
// size), so a speedup-S crossbar can deliver up to S frames per output
// per packet-time while each output transmits one — the standard
// output-queued operating point.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/crossbar.hpp"
#include "fabric/flow_table.hpp"
#include "fabric/voq_switch.hpp"
#include "hw/scheduler_chip.hpp"

namespace ss::fabric {

/// Which fabric organization moves frames to the line cards.
enum class FabricKind : std::uint8_t {
  kOutputQueued,  ///< crossbar with speedup + output staging
  kVoq,           ///< input-queued VOQs with iSLIP matching (speedup 1)
};

struct SwitchConfig {
  unsigned ports = 4;            ///< ports are both inputs and outputs
  unsigned slots_per_port = 4;   ///< stream-slots on each port's scheduler
  FabricKind fabric = FabricKind::kOutputQueued;
  unsigned speedup = 2;          ///< output-queued fabric only
  std::size_t staging_depth = 64;
  hw::ComparisonMode cmp_mode = hw::ComparisonMode::kTagOnly;
  std::size_t port_queue_depth = 512;  ///< per-slot frame queue on the card
};

struct PortStats {
  std::uint64_t transmitted = 0;
  std::uint64_t queue_drops = 0;  ///< per-slot card queue overflowed
  std::vector<std::uint64_t> per_slot_tx;
};

class SwitchSystem {
 public:
  explicit SwitchSystem(const SwitchConfig& cfg);

  /// Configure a slot on an output port's scheduler.
  void load_slot(std::uint32_t port, hw::SlotId slot,
                 const hw::SlotConfig& sc);

  [[nodiscard]] FlowTable& flows() { return flows_; }
  /// The output-queued fabric (only when FabricKind::kOutputQueued).
  [[nodiscard]] Crossbar& crossbar() { return *xbar_; }
  /// The VOQ fabric (only when FabricKind::kVoq).
  [[nodiscard]] VoqSwitch& voq() { return *voq_; }

  /// Inject a frame at an input port; classification decides where it
  /// goes.  Returns false if it was dropped (no route / input FIFO full).
  bool inject(std::uint32_t input_port, const FlowKey& key,
              std::uint32_t bytes = 1500);

  /// Advance one packet-time: one crossbar cycle, then every output
  /// port's scheduler runs one decision cycle and transmits.
  void step();
  void run(std::uint64_t packet_times);

  [[nodiscard]] const PortStats& port_stats(std::uint32_t port) const {
    return stats_[port];
  }
  [[nodiscard]] std::uint64_t unrouted_drops() const { return unrouted_; }
  [[nodiscard]] std::uint64_t packet_times() const { return time_; }
  [[nodiscard]] const hw::SchedulerChip& scheduler(std::uint32_t port) const {
    return *chips_[port];
  }

 private:
  SwitchConfig cfg_;
  FlowTable flows_;
  std::unique_ptr<Crossbar> xbar_;  ///< exactly one fabric is non-null
  std::unique_ptr<VoqSwitch> voq_;
  std::vector<std::unique_ptr<hw::SchedulerChip>> chips_;
  // Per-port, per-slot frame queues on the card (SRAM-backed in the real
  // line card; sizes only matter here).
  std::vector<std::vector<std::deque<FabricFrame>>> port_queues_;
  std::vector<PortStats> stats_;
  std::uint64_t unrouted_ = 0;
  std::uint64_t time_ = 0;
};

}  // namespace ss::fabric
