// scheduler_chip.hpp — top level of the ShareStreams FPGA scheduler.
//
// Composes N Register Base blocks, the N/2-Decision-block recirculating
// shuffle-exchange network, and the Control & Steering unit into the
// complete scheduler of Figure 4.  The chip runs in one of two
// architectural configurations (the paper's first tradeoff):
//
//   * WR (max-finding / winner-only routing): each decision cycle selects
//     the single highest-priority backlogged slot and grants one frame.
//   * BA (Base Architecture / block decisions): each decision cycle orders
//     ALL slots; the resulting *block* is granted in a single link
//     transaction — max-first emits the block highest-priority-first,
//     min-first from the other end of the lane array.  One slot ID is
//     circulated for the winner window adjustment: the block head in
//     max-first mode, the block tail in min-first mode (Section 5.1).
//
// Virtual time (`vtime`) is measured in packet-times: a WR decision cycle
// occupies one packet-time on the link, a block decision cycle occupies
// one packet-time per granted frame.  Request periods are expressed in the
// same unit, so "requested every decision cycle" (Table 3) means
// period = 1 in WR mode and period = N in block mode.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/control_unit.hpp"
#include "hw/fault_hooks.hpp"
#include "hw/fields.hpp"
#include "hw/register_block.hpp"
#include "hw/shuffle.hpp"
#include "hw/trace.hpp"
#include "telemetry/instruments.hpp"

namespace ss::telemetry {
class AuditSession;
class Profiler;
}  // namespace ss::telemetry

namespace ss::hw {

struct ChipConfig {
  unsigned slots = 4;  ///< power of two, 2..32 (5-bit stream IDs)
  ComparisonMode cmp_mode = ComparisonMode::kDwcsFull;
  bool block_mode = false;  ///< BA block decisions vs WR max-finding
  bool min_first = false;   ///< block emission/circulation from the tail
  /// Block-mode grant batching: at most this many block entries are granted
  /// per decision cycle (0 = the whole block, the classic BA behavior).
  /// Because the comparators rank pending slots ahead of idle ones, the
  /// first K pending lanes of the sorted block are exactly the K frames
  /// that K sequential winner-only decisions would grant, so batch_depth=1
  /// reproduces WR's one-winner-per-cycle service order on the block
  /// datapath.  Ignored in WR mode.
  unsigned batch_depth = 0;
  SortSchedule schedule = SortSchedule::kPerfectShuffle;
  /// Section-6 extension: compute-ahead Register Base blocks precompute
  /// both candidate next states under predication, so PRIORITY_UPDATE
  /// commits in a single cycle (timing-only: results are bit-identical).
  bool compute_ahead = false;
  ControlTiming timing{};
  /// Decision-kernel selection for the shuffle network (kAuto = SS_SIMD
  /// env + CPU dispatch; kReference forces the per-pair scalar oracle —
  /// the bench's baseline leg and the differential referee use it).
  simd::KernelChoice kernel = simd::KernelChoice::kAuto;
};

/// One granted frame within a decision cycle.
struct Grant {
  SlotId slot;
  std::uint64_t emit_vtime;  ///< packet-time at which the frame leaves
  bool met_deadline;
};

/// Result of one completed decision cycle.
struct DecisionOutcome {
  bool idle = false;               ///< no slot had a backlogged request
  std::optional<SlotId> circulated;///< ID sent through PRIORITY_UPDATE
  std::vector<Grant> grants;       ///< emission order (size 1 in WR mode)
  /// Block mode: the whole ordered block of backlogged slots this cycle,
  /// in emission order.  A strict superset of `grants` when batch_depth
  /// truncates the grant burst — systems software reads it to size the
  /// next drain pass without another PCI exchange.  Empty in WR mode.
  std::vector<SlotId> block;
  std::vector<SlotId> drops;       ///< droppable slots whose late head was
                                   ///< discarded this cycle (systems
                                   ///< software must drop the host frame)
  std::uint64_t hw_cycles = 0;     ///< hardware cycles this decision took
};

class SchedulerChip {
 public:
  /// Throws std::invalid_argument unless cfg.slots is a power of two in
  /// 2..32.
  explicit SchedulerChip(const ChipConfig& cfg);

  /// LOAD a stream-slot's configuration (systems software writes the
  /// service constraints into the SRAM partition; the control unit latches
  /// them into the Register Base block).
  void load_slot(SlotId slot, const SlotConfig& cfg);

  /// New request for a slot (arrival-time offset from the Stream
  /// processor).  Defaults the 16-bit arrival stamp to the current vtime.
  void push_request(SlotId slot);
  void push_request(SlotId slot, Arrival arrival);

  /// `n` new requests for a slot, exactly as n push_request calls with
  /// the same stamp: only a request into an empty slot latches its
  /// arrival.  n = 0 does nothing.
  void push_requests(SlotId slot, Arrival arrival, std::uint32_t n);

  /// Fair-queuing mapping: per-packet service tag accompanies the request
  /// (the slot's deadline field tracks the head packet's tag).
  void push_tagged_request(SlotId slot, Deadline tag, Arrival arrival);

  /// Run one complete decision cycle (ticks the FSM until the boundary).
  DecisionOutcome run_decision_cycle();

  /// Allocation-free variant: reuses `out`'s grant/block/drop capacity
  /// across decision cycles.  The hot loops (endsystem drain, bench,
  /// differential campaigns) call this; the by-value overload above wraps
  /// it.  `out` is fully overwritten.
  void run_decision_cycle(DecisionOutcome& out);

  /// Fallible variant: an injected decision-cycle stall fails the attempt
  /// *before* any state mutation — vtime, counters and lane contents are
  /// untouched, so the caller may simply retry.  Returns false on a stall
  /// (out is left unmodified), true with the outcome otherwise.
  [[nodiscard]] bool try_run_decision_cycle(DecisionOutcome& out);

  /// Run `n` decision cycles, discarding the outcomes (counters persist).
  void run_decision_cycles(std::uint64_t n);

  [[nodiscard]] std::uint64_t vtime() const { return vtime_; }
  [[nodiscard]] std::uint64_t hw_cycles() const { return control_.hw_cycles(); }
  [[nodiscard]] std::uint64_t decision_cycles() const {
    return control_.decision_cycles();
  }
  [[nodiscard]] std::uint64_t frames_granted() const { return frames_granted_; }

  [[nodiscard]] const RegisterBlock& slot(SlotId s) const { return slots_[s]; }
  [[nodiscard]] const ChipConfig& config() const { return cfg_; }
  [[nodiscard]] const ControlUnit& control() const { return control_; }

  /// The block produced by the most recent non-idle decision cycle, in
  /// lane order (lane 0 = highest priority).  Empty before the first one.
  /// Gathered from the network's lane file on each call (only a non-idle
  /// LOAD rewrites it), so the decision hot path never pays for the
  /// AttrWord copy.
  [[nodiscard]] std::vector<AttrWord> last_block() const {
    if (!network_.done()) return {};
    return network_.lanes();
  }

  /// Effective request period for "one request per decision cycle"
  /// workloads: 1 in WR mode, N in block mode (see header comment).
  [[nodiscard]] std::uint16_t period_per_decision_cycle() const {
    return static_cast<std::uint16_t>(cfg_.block_mode ? cfg_.slots : 1);
  }

  /// Attach a decision-cycle tracer (nullptr detaches).  Tracing records
  /// lane contents before and after the SCHEDULE passes plus the grant
  /// and drop vectors — the simulator's waveform view.
  void attach_tracer(Tracer* t) { tracer_ = t; }

  /// Attach live metrics (nullptr detaches).  Decision/grant/drop counts,
  /// FSM phase-cycle breakdown and shuffle-network activity are recorded
  /// per decision cycle; detached cost is one null test per cycle.
  void attach_metrics(telemetry::ChipMetrics* m) { metrics_ = m; }

  /// Attach a fault injector (nullptr detaches).  Only
  /// try_run_decision_cycle consults it.
  void attach_faults(FaultInjector* f) { faults_ = f; }

  /// Attach a decision-audit session (nullptr detaches).  The shuffle
  /// network reports per-comparison rule provenance into the session's
  /// profile and every committed (non-idle) decision cycle either pushes
  /// a full record into the flight-recorder ring (sampled decisions —
  /// the session's DecisionSampler decides) or advances the exact
  /// counters through the cheap lite path.  Observation only: grants,
  /// drops and all register state are unchanged at any sample rate — a
  /// sampled decision runs the reference comparators on the same
  /// slot-ordered lane file the kernel would.
  void attach_audit(telemetry::AuditSession* a);

  /// Attach a hot-path profiler (nullptr detaches).  The chip attributes
  /// each decision cycle and its SCHEDULE network passes to the
  /// chip_decision / shuffle_passes stages.
  void attach_profiler(telemetry::Profiler* p) { profiler_ = p; }

  /// Decision cycles whose SCHEDULE step re-placed the dirty slots in the
  /// previous decision's sort instead of running the network passes
  /// (block reuse: same lane file, same grants, same modeled cycles).
  [[nodiscard]] std::uint64_t reused_decisions() const {
    return network_.total_reuses();
  }
  [[nodiscard]] std::uint64_t network_comparisons() const {
    return network_.total_comparisons();
  }

 private:
  void execute_decision(DecisionOutcome& out);

  ChipConfig cfg_;
  std::vector<RegisterBlock> slots_;
  ShuffleNetwork network_;
  ControlUnit control_;
  /// Slots with deadline semantics (kDwcs / kEdf), set by load_slot.
  /// Fair-queuing and static-priority slots never take the miss path —
  /// the unified-architecture insight (Section 2) as a mask.  Starts full:
  /// an unconfigured slot defaults to kDwcs.
  std::uint32_t deadline_slots_ = 0xFFFFFFFFu;
  /// Slot-ordered copy of the Register Base blocks' attribute buses (row
  /// s = slot s), refreshed only for dirty slots.  LOAD drives it whole
  /// onto the network's lane file, so block i feeds network input i at
  /// every decision (or the network re-places its refreshed rows), and
  /// PRIORITY_UPDATE runs every block's expiry comparator in one sweep
  /// over its deadline row.
  simd::LaneRegs bus_;
  /// Chip-level mirrors of per-slot state, maintained at the mutation call
  /// sites (every Register Base mutation flows through a SchedulerChip
  /// method): bit s of pend_mask_ == slots_[s].backlog() > 0, bit s of
  /// dirty_mask_ == slot s's attribute bus changed since its last publish,
  /// bit s of latched_ == slots_[s].expired_latched().  They replace
  /// N-object scans per decision cycle with register reads — the
  /// hardware's wired-OR request lines, kept in software.  dirty_mask_
  /// starts as every configured slot, so the first LOAD fills bus_.
  std::uint32_t pend_mask_ = 0;
  std::uint32_t dirty_mask_;
  std::uint32_t latched_ = 0;
  std::uint64_t vtime_ = 0;
  std::uint64_t frames_granted_ = 0;
  // Fair-queuing per-slot tag queues (head tag drives the deadline field).
  // Head-indexed: pop advances a cursor instead of memmoving the vector
  // (the grant path pops one tag per fair-queued frame), with amortized
  // prefix compaction so storage stays proportional to the live queue.
  struct TagFifo {
    std::vector<Deadline> buf;
    std::size_t head = 0;
    [[nodiscard]] bool empty() const { return head == buf.size(); }
    void clear() {
      buf.clear();
      head = 0;
    }
    void push(Deadline d) { buf.push_back(d); }
    Deadline pop() {
      const Deadline d = buf[head++];
      if (head == buf.size() || (head >= 64 && head * 2 >= buf.size())) {
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return d;
    }
  };
  std::vector<TagFifo> tag_fifos_;
  Tracer* tracer_ = nullptr;
  telemetry::ChipMetrics* metrics_ = nullptr;
  FaultInjector* faults_ = nullptr;
  telemetry::AuditSession* audit_ = nullptr;
  telemetry::Profiler* profiler_ = nullptr;
};

}  // namespace ss::hw
