#include "dwcs/modes.hpp"

#include <algorithm>
#include <cmath>

namespace ss::dwcs {

std::vector<std::uint32_t> fair_share_periods(
    const std::vector<StreamRequirement>& reqs) {
  // Fair-share streams divide the RESIDUAL link capacity: whatever the
  // explicit-period (EDF / window-constrained) streams in the same set do
  // not already demand.  With only fair streams present the residual is
  // the whole link and T_i = (sum of weights) / w_i, the 1:1:2:4 mapping
  // of the paper's evaluation.
  double total_weight = 0.0;
  double explicit_util = 0.0;
  for (const auto& r : reqs) {
    switch (r.kind) {
      case RequirementKind::kFairShare:
        total_weight += r.weight;
        break;
      case RequirementKind::kEdf:
      case RequirementKind::kWindowConstrained:
        if (r.period > 0) explicit_util += 1.0 / r.period;
        break;
      case RequirementKind::kStaticPriority:
        break;  // best effort reserves nothing
    }
  }
  const double residual = std::max(0.05, 1.0 - explicit_util);
  std::vector<std::uint32_t> periods;
  periods.reserve(reqs.size());
  for (const auto& r : reqs) {
    if (r.kind == RequirementKind::kFairShare && r.weight > 0.0) {
      const double t = total_weight / (r.weight * residual);
      // Round UP: a longer period under-uses capacity slightly, a shorter
      // one overshoots it and breaks the admission guarantee (1/T sums
      // above the residual).
      periods.push_back(std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::ceil(t - 1e-9))));
    } else {
      periods.push_back(r.period);
    }
  }
  return periods;
}

hw::SlotConfig to_slot_config(const StreamRequirement& r,
                              std::uint32_t fair_period) {
  hw::SlotConfig cfg;
  cfg.droppable = r.droppable;
  cfg.initial_deadline = hw::Deadline{r.initial_deadline};
  switch (r.kind) {
    case RequirementKind::kEdf:
      cfg.mode = hw::SlotMode::kEdf;
      cfg.period = static_cast<std::uint16_t>(r.period);
      cfg.loss_num = 0;
      cfg.loss_den = 1;
      break;
    case RequirementKind::kStaticPriority:
      cfg.mode = hw::SlotMode::kStaticPrio;
      cfg.period = 0;
      cfg.loss_num = 0;
      cfg.loss_den = r.priority;  // rule-3 field carries the level
      // All static slots share one pinned deadline so rule 1 never fires
      // among them.
      cfg.initial_deadline = hw::Deadline{0};
      break;
    case RequirementKind::kFairShare:
      cfg.mode = hw::SlotMode::kEdf;
      cfg.period = static_cast<std::uint16_t>(fair_period);
      cfg.loss_num = 0;
      cfg.loss_den = 1;
      // First deadline one period out, so a feasible set starts without
      // an artificial time-zero pile-up.
      cfg.initial_deadline = hw::Deadline{fair_period};
      break;
    case RequirementKind::kWindowConstrained:
      cfg.mode = hw::SlotMode::kDwcs;
      cfg.period = static_cast<std::uint16_t>(r.period);
      cfg.loss_num = r.loss_num;
      cfg.loss_den = r.loss_den;
      break;
  }
  return cfg;
}

StreamSpec to_stream_spec(const StreamRequirement& r,
                          std::uint32_t fair_period) {
  StreamSpec spec;
  spec.droppable = r.droppable;
  spec.initial_deadline = r.initial_deadline;
  switch (r.kind) {
    case RequirementKind::kEdf:
      spec.mode = StreamMode::kEdf;
      spec.period = r.period;
      spec.loss_num = 0;
      spec.loss_den = 1;
      break;
    case RequirementKind::kStaticPriority:
      spec.mode = StreamMode::kStaticPrio;
      spec.period = 0;
      spec.loss_num = 0;
      spec.loss_den = r.priority;
      spec.initial_deadline = 0;
      break;
    case RequirementKind::kFairShare:
      spec.mode = StreamMode::kEdf;
      spec.period = fair_period;
      spec.loss_num = 0;
      spec.loss_den = 1;
      spec.initial_deadline = fair_period;  // as in to_slot_config
      break;
    case RequirementKind::kWindowConstrained:
      spec.mode = StreamMode::kDwcs;
      spec.period = r.period;
      spec.loss_num = r.loss_num;
      spec.loss_den = r.loss_den;
      break;
  }
  return spec;
}

ReferenceScheduler::Options reference_options(const hw::ChipConfig& cc) {
  ReferenceScheduler::Options o;
  o.block_mode = cc.block_mode;
  o.min_first = cc.min_first;
  o.edf_comparison = cc.cmp_mode == hw::ComparisonMode::kTagOnly;
  o.batch_depth = cc.batch_depth;
  return o;
}

}  // namespace ss::dwcs
