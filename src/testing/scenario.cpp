#include "testing/scenario.hpp"

namespace ss::testing {

hw::ChipConfig to_chip_config(const FabricPoint& f) {
  hw::ChipConfig hc;
  hc.slots = f.slots;
  hc.block_mode = f.block_mode;
  hc.min_first = f.min_first;
  hc.schedule = f.schedule;
  hc.batch_depth = f.batch_depth;
  switch (f.discipline) {
    case Discipline::kDwcs:
      hc.cmp_mode = hw::ComparisonMode::kDwcsFull;
      break;
    case Discipline::kEdf:
      hc.cmp_mode = hw::ComparisonMode::kTagOnly;
      break;
    case Discipline::kStaticPrio:
      hc.cmp_mode = hw::ComparisonMode::kStatic;
      break;
    case Discipline::kFairTag:
      hc.cmp_mode = hw::ComparisonMode::kTagOnly;
      hc.timing.bypass_update = true;  // Section-2 bypass (timing only)
      break;
  }
  return hc;
}

hw::SlotConfig to_slot_config(Discipline d, const StreamSetup& s) {
  hw::SlotConfig c;
  c.period = s.period;
  c.loss_num = s.loss_num;
  c.loss_den = s.loss_den;
  c.droppable = s.droppable;
  c.initial_deadline = hw::Deadline{s.initial_deadline};
  switch (d) {
    case Discipline::kDwcs:
      c.mode = hw::SlotMode::kDwcs;
      break;
    case Discipline::kEdf:
      c.mode = hw::SlotMode::kEdf;
      break;
    case Discipline::kStaticPrio:
      // Static priority: deadlines pinned equal, no period-driven updates,
      // the priority level rides in the loss-denominator field.
      c.mode = hw::SlotMode::kStaticPrio;
      c.period = 0;
      c.loss_num = 0;
      c.initial_deadline = hw::Deadline{0};
      break;
    case Discipline::kFairTag:
      // Per-packet tags own the deadline field; period must not advance it.
      c.mode = hw::SlotMode::kFairTag;
      c.period = 0;
      c.initial_deadline = hw::Deadline{0};
      break;
  }
  return c;
}

dwcs::StreamSpec to_stream_spec(Discipline d, const StreamSetup& s) {
  dwcs::StreamSpec sp;
  sp.period = s.period;
  sp.loss_num = s.loss_num;
  sp.loss_den = s.loss_den;
  sp.droppable = s.droppable;
  sp.initial_deadline = s.initial_deadline;
  switch (d) {
    case Discipline::kDwcs:
      sp.mode = dwcs::StreamMode::kDwcs;
      break;
    case Discipline::kEdf:
      sp.mode = dwcs::StreamMode::kEdf;
      break;
    case Discipline::kStaticPrio:
      sp.mode = dwcs::StreamMode::kStaticPrio;
      sp.period = 0;
      sp.loss_num = 0;
      sp.initial_deadline = 0;
      break;
    case Discipline::kFairTag:
      sp.mode = dwcs::StreamMode::kFairTag;
      sp.period = 0;
      sp.initial_deadline = 0;
      break;
  }
  return sp;
}

}  // namespace ss::testing
