#include "hw/scheduler_chip.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "telemetry/audit.hpp"
#include "telemetry/profiler.hpp"
#include "util/bitops.hpp"

namespace ss::hw {

namespace {
ControlTiming effective_timing(const ChipConfig& cfg) {
  ControlTiming t = cfg.timing;
  // Compute-ahead registers pre-stage both adjustment outcomes; the
  // circulated ID merely selects one, collapsing the update burst.
  if (cfg.compute_ahead) t.update_cycles = 1;
  return t;
}

// Runs in cfg_'s initializer, so a bad slot count is rejected before any
// member sized from it is built.
const ChipConfig& validated(const ChipConfig& cfg) {
  if (!is_pow2(cfg.slots) || cfg.slots < 2 || cfg.slots > kMaxSlots) {
    throw std::invalid_argument(
        "SchedulerChip: slots must be a power of two in 2..32");
  }
  return cfg;
}

// `m` with the bits of `bit` set to `v`: keeps a chip-level mask in step
// with one Register Base block's flag.
constexpr std::uint32_t mirror(std::uint32_t m, std::uint32_t bit, bool v) {
  return v ? m | bit : m & ~bit;
}

}  // namespace

SchedulerChip::SchedulerChip(const ChipConfig& cfg)
    : cfg_(validated(cfg)),
      slots_(cfg.slots),
      network_(cfg.slots, cfg.schedule, cfg.cmp_mode, cfg.kernel),
      control_(cfg.slots, schedule_passes(cfg.schedule, cfg.slots),
               effective_timing(cfg)),
      dirty_mask_(0xFFFFFFFFu >> (32 - cfg.slots)),
      tag_fifos_(cfg.slots) {}

void SchedulerChip::load_slot(SlotId slot, const SlotConfig& cfg) {
  assert(slot < slots_.size());
  slots_[slot].load(slot, cfg);
  const std::uint32_t bit = 1u << slot;
  pend_mask_ &= ~bit;  // load resets the backlog
  dirty_mask_ |= bit;
  latched_ = mirror(latched_, bit, slots_[slot].expired_latched());
  deadline_slots_ =
      mirror(deadline_slots_, bit,
             cfg.mode == SlotMode::kDwcs || cfg.mode == SlotMode::kEdf);
  tag_fifos_[slot].clear();
}

void SchedulerChip::push_request(SlotId slot) {
  push_request(slot, Arrival{vtime_});
}

void SchedulerChip::push_request(SlotId slot, Arrival arrival) {
  assert(slot < slots_.size());
  slots_[slot].push_request(arrival);
  pend_mask_ |= 1u << slot;
  dirty_mask_ |= 1u << slot;
}

void SchedulerChip::push_tagged_request(SlotId slot, Deadline tag,
                                        Arrival arrival) {
  assert(slot < slots_.size());
  assert(slots_[slot].config().mode == SlotMode::kFairTag);
  // Tags live in the on-card SRAM / block-RAM per-stream queues; the head
  // tag is loaded into the Register Base block's deadline field.
  if (slots_[slot].backlog() == 0 && tag_fifos_[slot].empty()) {
    slots_[slot].set_deadline(tag);
    latched_ = mirror(latched_, 1u << slot, slots_[slot].expired_latched());
  } else {
    tag_fifos_[slot].push(tag);
  }
  slots_[slot].push_request(arrival);
  pend_mask_ |= 1u << slot;
  dirty_mask_ |= 1u << slot;
}

void SchedulerChip::execute_decision(DecisionOutcome& out) {
  out.idle = false;
  out.circulated.reset();
  out.grants.clear();
  out.block.clear();
  out.drops.clear();
  out.hw_cycles = 0;

  TraceRecord trace;
  if (tracer_) {
    trace.decision_cycle = control_.decision_cycles();
    trace.vtime_start = vtime_;
  }

  // Pre-decision pendingness, decided before anything touches the lane
  // file: an idle cycle leaves the network's lanes as the previous
  // decision sorted them, so last_block() still reads that block.  Also
  // kept for the audit planes — loser attribution is judged on what
  // contended THIS decision.
  const unsigned n = static_cast<unsigned>(slots_.size());
  const std::uint32_t pend_mask = pend_mask_;
  const std::uint32_t pending0 = pend_mask;
  if (pending0 == 0) {
    out.idle = true;
    if (metrics_) metrics_->idle_decisions->add(1);
    if (tracer_) {
      trace.idle = true;
      tracer_->record(std::move(trace));
    }
    return;
  }

  // LOAD: Register Base block s drives network input s.  The slot-ordered
  // bus copy refreshes only the rows whose attribute bus changed since
  // the last LOAD, then goes onto the lane file whole, so every decision
  // starts from slot order whatever the previous one sorted — unless
  // SCHEDULE below re-places exactly those rows, with the same result.
  const std::uint32_t published = dirty_mask_;
  for (std::uint32_t m = published; m != 0; m &= m - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(m));
    slots_[s].publish_lanes(bus_, s);
  }
  dirty_mask_ = 0;
  if (tracer_) {
    for (unsigned s = 0; s < n; ++s) trace.loaded.push_back(bus_.get(s));
  }

  // Sampling gate, decided before the SCHEDULE passes so the comparison
  // hot path already knows whether this decision carries full provenance.
  bool audit_sampled = false;
  if (audit_ != nullptr) audit_sampled = audit_->begin_decision();
  network_.set_audit_live(audit_sampled);

  // SCHEDULE: log2(N) (or schedule-specific) network passes — or, where
  // the previous decision's sort provably still orders every clean slot,
  // its re-place of the published rows, which leaves the same lane file
  // (block reuse, DESIGN.md §12).  The control unit charges every pass
  // either way.
  const std::uint64_t cmps_before = network_.total_comparisons();
  const std::uint64_t pend_before = network_.total_pending_comparisons();
  bool reused = false;
  {
    SS_PROF(profiler_, telemetry::ProfStage::kShufflePasses);
    reused = network_.replace(bus_, pend_mask, published);
    if (!reused) {
      network_.load_lanes(bus_, pend_mask);
      network_.run_all();
    }
  }
  if (metrics_) {
    metrics_->net_passes->add(network_.passes_executed());
    metrics_->net_reuses->add(reused ? 1 : 0);
    metrics_->net_comparisons->add(network_.total_comparisons() - cmps_before);
  }

  // Grant selection (IDs read straight off the sorted lane file; the
  // AttrWord view is gathered only for the tracer / last_block() API).
  if (!cfg_.block_mode) {
    // WR / max-finding: the tournament leaves the winner in lane 0; the
    // pending-only rule guarantees it is backlogged when any slot is.
    const SlotId w = network_.winner_id();
    out.circulated = w;
    out.grants.push_back({w, vtime_, false});
  } else {
    // BA / block decisions: the backlogged slots in block order — from the
    // head in max-first mode, from the tail in min-first mode.  Up to
    // batch_depth of them are granted one frame each this cycle (0 = the
    // whole block); the rest stay backlogged and re-enter the next sort.
    network_.block_ids(out.block);
    if (cfg_.min_first) std::reverse(out.block.begin(), out.block.end());
    const std::size_t burst =
        cfg_.batch_depth == 0
            ? out.block.size()
            : std::min<std::size_t>(cfg_.batch_depth, out.block.size());
    out.circulated = out.block.front();
    for (std::size_t i = 0; i < burst; ++i) {
      out.grants.push_back({out.block[i], vtime_ + i, false});
    }
  }

  // PRIORITY_UPDATE: granted slots apply the service path (the circulated
  // one additionally gets the winner window adjustment); every other slot
  // concurrently runs the local deadline-miss check.  The mirror masks
  // update in locals and are stored once per decision.
  std::uint32_t granted = 0;
  std::uint32_t dirty = dirty_mask_;
  std::uint32_t pend = pend_mask_;
  std::uint32_t latched = latched_;
  for (Grant& g : out.grants) {
    const std::uint32_t bit = 1u << g.slot;
    RegisterBlock& rb = slots_[g.slot];
    granted |= bit;
    const bool circulated = out.circulated && *out.circulated == g.slot;
    g.met_deadline = rb.service_update(g.emit_vtime, circulated);
    dirty |= bit;
    if (rb.backlog() == 0) pend &= ~bit;
    ++frames_granted_;
    // Fair-queuing slots: load the next packet's service tag.
    if (rb.config().mode == SlotMode::kFairTag) {
      auto& fifo = tag_fifos_[g.slot];
      if (!fifo.empty()) rb.set_deadline(fifo.pop());
    }
    latched = mirror(latched, bit, rb.expired_latched());
  }
  // The miss check as mask algebra: a backlogged, ungranted deadline slot
  // misses iff its head is late at the cycle end (the serial compare, run
  // over the bus copy's deadline row — an ungranted slot's deadline has
  // not moved since LOAD) or its expired flip-flop already holds.
  // Only those slots run the loser path, in ascending slot order.
  const std::uint64_t cycle_end = vtime_ + out.grants.size();
  const std::uint32_t live = deadline_slots_ & pend & ~granted;
  std::uint32_t late = latched;
  if (live != 0) {
    const Deadline end{cycle_end};
    for (unsigned s = 0; s < n; ++s) {
      late |= static_cast<std::uint32_t>(Deadline{bus_.deadline[s]} <= end)
              << s;
    }
  }
  for (std::uint32_t m = live & late; m != 0; m &= m - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(m));
    const std::uint32_t bit = 1u << s;
    RegisterBlock& rb = slots_[s];
    const RegisterBlock::MissResult mr = rb.miss_update(cycle_end);
    assert(mr.missed);
    // The loser adjustment touched the published loss window (and a drop
    // may have emptied the backlog).
    dirty |= bit;
    if (rb.backlog() == 0) pend &= ~bit;
    latched = mirror(latched, bit, rb.expired_latched());
    if (mr.dropped) out.drops.push_back(static_cast<SlotId>(s));
  }
  dirty_mask_ = dirty;
  pend_mask_ = pend;
  latched_ = latched;

  vtime_ += out.grants.size();

  if (metrics_) {
    metrics_->grants->add(out.grants.size());
    metrics_->drops->add(out.drops.size());
    if (out.circulated) metrics_->circulations->add(1);
    // WR grants exactly one frame; BA's block is the pending-lane count.
    metrics_->block_size->observe(static_cast<double>(
        cfg_.block_mode ? out.block.size() : out.grants.size()));
  }

  if (tracer_) {
    trace.block = last_block();
    trace.circulated = out.circulated;
    for (const Grant& g : out.grants) trace.grants.push_back(g.slot);
    trace.drops = out.drops;
    trace.hw_cycles = control_.sustained_cycles_per_decision();
    tracer_->record(std::move(trace));
  }

  // Flight recorder: a sampled decision snapshots the committed state
  // (post-update registers, grant block, losing pending slots) into the
  // black box; an unsampled one hands the session just the per-slot
  // violation counters so the exact burn attribution keeps flowing.
  if (audit_ != nullptr && !audit_sampled) {
    std::array<std::uint64_t, telemetry::kAuditMaxStreams> vio{};
    std::uint64_t losers = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      vio[s] = slots_[s].counters().violations;
      // Contended and not served: the lost-tiebreak context the sampled
      // path gets per-comparison, at mask granularity.
      if (((pending0 >> s) & 1u) && !((granted >> s) & 1u)) {
        losers |= std::uint64_t{1} << s;
      }
    }
    audit_->on_decision_lite(n, vio.data(),
                             network_.total_pending_comparisons() -
                                 pend_before,
                             losers);
  }
  if (audit_ != nullptr && audit_sampled) {
    telemetry::DecisionRecord rec;
    rec.decision = control_.decision_cycles();
    rec.vtime = vtime_ - out.grants.size();
    rec.hw_cycles = control_.sustained_cycles_per_decision();
    rec.fsm_phase = static_cast<std::uint8_t>(control_.state());
    rec.circulated = out.circulated
                         ? static_cast<std::int16_t>(*out.circulated)
                         : std::int16_t{-1};
    const std::size_t ng =
        std::min<std::size_t>(out.grants.size(), telemetry::kAuditMaxStreams);
    rec.n_grants = static_cast<std::uint8_t>(ng);
    for (std::size_t i = 0; i < ng; ++i) rec.grants[i] = out.grants[i].slot;
    rec.n_streams = static_cast<std::uint8_t>(slots_.size());
    std::uint8_t losers = 0;
    for (unsigned s = 0; s < n; ++s) {
      if (((pending0 >> s) & 1u) && !((granted >> s) & 1u)) {
        rec.losers[losers++] = static_cast<std::uint8_t>(s);
      }
      const RegisterBlock& rb = slots_[s];
      telemetry::DecisionRecord::StreamSnap& snap = rec.streams[s];
      snap.deadline = rb.deadline().raw();
      snap.backlog = rb.backlog();
      snap.violations = rb.counters().violations;
      snap.loss_num = rb.loss_num();
      snap.loss_den = rb.loss_den();
      snap.pending = rb.backlog() > 0;
    }
    rec.n_losers = losers;
    audit_->on_decision(rec);
  }
}

void SchedulerChip::attach_audit(telemetry::AuditSession* a) {
  audit_ = a;
  network_.attach_audit(a != nullptr ? &a->audit() : nullptr);
}

bool SchedulerChip::try_run_decision_cycle(DecisionOutcome& out) {
  if (faults_) {
    const FaultDecision d = faults_->on_transaction(FaultSite::kChipDecision);
    if (d.fault) return false;  // stalled before any datapath activity
  }
  run_decision_cycle(out);
  return true;
}

void SchedulerChip::run_decision_cycle(DecisionOutcome& out) {
  SS_PROF(profiler_, telemetry::ProfStage::kChipDecision);
  // Drive the Control & Steering FSM through one full decision in closed
  // form: advance_to_apply() charges the LOAD burst and every SCHEDULE
  // pass (the datapath evaluates them all at once — with the SIMD stage
  // kernel, literally), execute_decision() runs at the UPDATE-apply
  // boundary exactly as in the tick loop, finish_decision() charges the
  // settle/writeback tail.  The per-decision hw_cycles, decision counter
  // and FSM state at the apply point are bit-identical to tick()ing
  // (pinned by ControlUnitTest.FastPathMatchesTickLoop).
  const std::uint64_t start_cycles = control_.hw_cycles();
  const ControlUnit::Action a = control_.advance_to_apply();
  assert(a == ControlUnit::Action::kUpdateApply);
  (void)a;
  execute_decision(out);
  control_.finish_decision();
  if (out.idle) vtime_ += 1;  // an idle decision cycle still burns a packet-time
  out.hw_cycles = control_.hw_cycles() - start_cycles;
  if (metrics_) {
    const ControlUnit::PhaseCycles pc = control_.phase_cycles();
    metrics_->decisions->add(1);
    metrics_->hw_cycles->add(out.hw_cycles);
    metrics_->load_cycles->add(pc.load);
    metrics_->schedule_cycles->add(pc.sched);
    metrics_->update_cycles->add(pc.upd);
    metrics_->output_cycles->add(pc.outp);
  }
}

DecisionOutcome SchedulerChip::run_decision_cycle() {
  DecisionOutcome out;
  run_decision_cycle(out);
  return out;
}

void SchedulerChip::run_decision_cycles(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) run_decision_cycle();
}

}  // namespace ss::hw
