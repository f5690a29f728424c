#include "fabric/switch_system.hpp"

#include <cassert>

namespace ss::fabric {

SwitchSystem::SwitchSystem(const SwitchConfig& cfg) : cfg_(cfg) {
  if (cfg.fabric == FabricKind::kOutputQueued) {
    xbar_ = std::make_unique<Crossbar>(cfg.ports, cfg.ports, cfg.speedup,
                                       cfg.staging_depth);
  } else {
    voq_ = std::make_unique<VoqSwitch>(cfg.ports, cfg.ports,
                                       cfg.staging_depth);
  }
  for (unsigned p = 0; p < cfg.ports; ++p) {
    hw::ChipConfig cc;
    cc.slots = cfg.slots_per_port;
    cc.cmp_mode = cfg.cmp_mode;
    chips_.push_back(std::make_unique<hw::SchedulerChip>(cc));
    port_queues_.emplace_back(cfg.slots_per_port);
    PortStats ps;
    ps.per_slot_tx.assign(cfg.slots_per_port, 0);
    stats_.push_back(std::move(ps));
  }
}

void SwitchSystem::load_slot(std::uint32_t port, hw::SlotId slot,
                             const hw::SlotConfig& sc) {
  assert(port < chips_.size());
  chips_[port]->load_slot(slot, sc);
}

bool SwitchSystem::inject(std::uint32_t input_port, const FlowKey& key,
                          std::uint32_t bytes) {
  const auto route = flows_.lookup(key);
  if (!route) {
    ++unrouted_;
    return false;
  }
  FabricFrame f;
  f.output_port = route->output_port;
  f.stream_slot = route->stream_slot;
  f.bytes = bytes;
  return xbar_ ? xbar_->offer(input_port, f) : voq_->offer(input_port, f);
}

void SwitchSystem::step() {
  ++time_;
  if (xbar_) {
    xbar_->cycle();
  } else {
    voq_->cycle();
  }

  for (unsigned p = 0; p < cfg_.ports; ++p) {
    // Line card pulls everything staged for it this packet-time into the
    // per-slot SRAM queues and announces the arrivals to the scheduler.
    FabricFrame f;
    while (xbar_ ? xbar_->pull(p, f) : voq_->pull(p, f)) {
      auto& q = port_queues_[p][f.stream_slot];
      if (q.size() >= cfg_.port_queue_depth) {
        ++stats_[p].queue_drops;
        continue;
      }
      q.push_back(f);
      chips_[p]->push_request(f.stream_slot,
                              hw::Arrival{chips_[p]->vtime()});
    }
    // One scheduling decision per packet-time; the winner's head frame
    // goes to the transceiver.
    const hw::DecisionOutcome out = chips_[p]->run_decision_cycle();
    for (const hw::SlotId s : out.drops) {
      if (!port_queues_[p][s].empty()) port_queues_[p][s].pop_front();
    }
    if (out.idle) continue;
    for (const hw::Grant& g : out.grants) {
      auto& q = port_queues_[p][g.slot];
      if (q.empty()) continue;  // spurious (should not happen)
      q.pop_front();
      ++stats_[p].transmitted;
      ++stats_[p].per_slot_tx[g.slot];
    }
  }
}

void SwitchSystem::run(std::uint64_t packet_times) {
  for (std::uint64_t t = 0; t < packet_times; ++t) step();
}

}  // namespace ss::fabric
