// scenario.hpp — the unit of work of the differential fuzz harness.
//
// A Scenario is a fully self-contained, deterministic description of one
// differential run: a point in the architectural configuration lattice
// (slot count x WR/block x min/max-first x sort schedule x discipline), the
// per-slot stream setups, an optional host-side streamlet aggregation plan,
// and a flat stream of admission/arrival/decision/reconfiguration events.
// Scenarios are what the workload fuzzer generates, what the differential
// executor runs, what the shrinker minimizes, and what trace files
// serialize — one artifact travels the whole pipeline, so any divergence
// is replayable from its file alone.
//
// Every field is plain data: subsetting the event vector always yields
// another valid scenario (the property delta-debugging minimization needs).
#pragma once

#include <cstdint>
#include <vector>

#include "core/aggregation.hpp"
#include "dwcs/reference_scheduler.hpp"
#include "hw/register_block.hpp"
#include "hw/scheduler_chip.hpp"
#include "robust/fault_plan.hpp"

namespace ss::testing {

/// Scheduling discipline mapped onto the unified fabric (Section 2's
/// canonical-architecture claim: one datapath, four disciplines).
enum class Discipline : std::uint8_t {
  kDwcs,        ///< full window-constrained DWCS (all Table-2 rules)
  kEdf,         ///< deadline-only comparison, window fields inert
  kStaticPrio,  ///< pinned deadlines, priority in the denominator field
  kFairTag,     ///< per-packet service tags, update cycle bypassed
};

/// A point in the architectural configuration lattice.
struct FabricPoint {
  unsigned slots = 4;  ///< power of two, 2..32
  Discipline discipline = Discipline::kDwcs;
  bool block_mode = false;  ///< BA block decisions vs WR max-finding
  bool min_first = false;   ///< block emission/circulation from the tail
  hw::SortSchedule schedule = hw::SortSchedule::kBitonic;
  /// Block-mode grant batching: at most this many block entries granted
  /// per decision cycle (0 = whole block).  Serialized as an optional
  /// `batch K` record, so pre-batching trace files parse unchanged.
  unsigned batch_depth = 0;

  friend bool operator==(const FabricPoint&, const FabricPoint&) = default;
};

/// One stream's service constraints, discipline-neutral: the executor maps
/// it onto hw::SlotConfig and dwcs::StreamSpec according to the fabric
/// point's discipline.
struct StreamSetup {
  std::uint16_t period = 1;      ///< request period T_i (packet-times)
  std::uint8_t loss_num = 0;     ///< x_i
  std::uint8_t loss_den = 1;     ///< y_i (priority level in kStaticPrio)
  bool droppable = true;
  std::uint64_t initial_deadline = 1;

  friend bool operator==(const StreamSetup&, const StreamSetup&) = default;
};

enum class EventKind : std::uint8_t {
  kArrival,        ///< one request arrives for `stream` at current vtime
  kTaggedArrival,  ///< fair-queuing arrival; advances the stream's tag clock
  kDecide,         ///< run one decision cycle on every implementation
  kReconfig,       ///< systems software re-LOADs `stream` with `setup`
};

struct Event {
  EventKind kind = EventKind::kDecide;
  std::uint32_t stream = 0;       ///< kArrival/kTaggedArrival/kReconfig
  std::uint32_t tag_increment = 1;///< kTaggedArrival: service-tag advance
  StreamSetup setup{};            ///< kReconfig payload

  friend bool operator==(const Event&, const Event&) = default;
};

/// Software discipline expressed as a rank function (src/pifo/) for the
/// rank-layer differential: the rank form replays the scenario's event
/// stream against its bespoke sched/ counterpart.
enum class RankDisc : std::uint8_t {
  kFcfs,
  kStaticPrio,
  kEdf,
  kWfq,
  kVirtualClock,
  kSfq,
};

/// PIFO substrate carrying the rank form: one of the four exact hardware
/// structures (packet-for-packet equivalence required) or the SP-PIFO
/// approximation (conservation required, inversions counted).
enum class RankBackend : std::uint8_t {
  kBinaryHeap,
  kPipelinedHeap,
  kSystolic,
  kShiftRegister,
  kSpPifo,
};

/// Rank-layer axis of a scenario.  Disabled by default so pre-rank trace
/// files and golden digests are untouched; serialized as an optional
/// `rank` record.
struct RankConfig {
  bool enabled = false;
  RankDisc disc = RankDisc::kFcfs;
  RankBackend backend = RankBackend::kBinaryHeap;
  std::uint8_t bands = 8;  ///< SP-PIFO band count (kSpPifo only)

  friend bool operator==(const RankConfig&, const RankConfig&) = default;
};

struct Scenario {
  FabricPoint fabric;
  std::vector<StreamSetup> streams;  ///< one per slot
  std::vector<Event> events;

  /// Host-side aggregation plan: `aggregation[slot]` lists the streamlet
  /// sets bound to that slot (empty vector = slot not aggregated; empty
  /// outer vector = no aggregation in this scenario).
  std::vector<std::vector<core::StreamletSet>> aggregation;

  /// Fair-tag scenarios only: when true, service tags are drawn from one
  /// global clock (each tagged arrival advances it), making every tag
  /// unique across streams.  Unique tags pin the fabric to a fixed total
  /// order, which is the precondition for cross-checking the hwpq
  /// variants — with equal tags the fabric's FCFS tie-break consults the
  /// slot arrival registers, which refresh on circulation, an order no
  /// immutable-key priority queue can realize (the paper's Section-3
  /// argument in miniature).  When false, tags advance per-stream clocks
  /// and ties exercise the FCFS path in the chip-vs-oracle diff instead.
  bool global_tags = false;

  /// Fault injection for validating the shrink/replay pipeline.  With the
  /// fault plane disabled (faults.seed == 0), a non-zero value makes the
  /// executor deliberately corrupt the oracle's view of the K-th granted
  /// frame (1-based), manufacturing a divergence at a known point.  With
  /// the fault plane enabled it instead forces failover to the software
  /// path at the K-th grant — the recovery-era reading of the same knob.
  /// Serialized with the scenario so a minimized reproducer still
  /// reproduces.
  std::uint64_t inject_fault_at_grant = 0;

  /// Rank-layer differential axis (rank.enabled == false = off).
  RankConfig rank{};

  /// Hardware fault plane for this run (seed == 0 = disabled).  The
  /// contract under faults: the guarded chip either recovers within the
  /// retry bound or fails over, and the grant sequence stays
  /// oracle-equivalent either way — so the differential digest of a
  /// faulted run equals the fault-free digest.
  robust::FaultProfile faults{};

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// The chip configuration of a fabric point: its slots, block mode,
/// emission end, schedule and batch depth, and the comparator its
/// discipline runs (fair tags bypass the PRIORITY_UPDATE rewrite).
[[nodiscard]] hw::ChipConfig to_chip_config(const FabricPoint& f);

/// Map a discipline-neutral setup onto the hardware slot configuration.
[[nodiscard]] hw::SlotConfig to_slot_config(Discipline d,
                                            const StreamSetup& s);

/// Map a discipline-neutral setup onto the software oracle's stream spec.
[[nodiscard]] dwcs::StreamSpec to_stream_spec(Discipline d,
                                              const StreamSetup& s);

}  // namespace ss::testing
