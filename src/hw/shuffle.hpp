// shuffle.hpp — the recirculating shuffle-exchange network.
//
// The ShareStreams fabric arranges N/2 Decision blocks in a SINGLE stage.
// Each SCHEDULE pass the Control & Steering muxes route the N attribute
// words through the perfect-shuffle interconnect into the Decision blocks,
// which compare-exchange each adjacent pair; log2(N) passes complete one
// decision cycle.  This conserves area versus a Decision-block tree (which
// needs N-1 blocks and cannot be pipelined when priorities update every
// decision cycle — Section 4.3).
//
// Two architectural configurations (the paper's central tradeoff):
//   * BA  (Base Architecture)   — winners AND losers are routed, so after
//     the passes the network holds an ordered *block* of all N streams.
//   * WR  (winner-only routing) — only winners propagate; after log2(N)
//     passes the single max-priority stream is available (max-finding).
//
// IMPORTANT FIDELITY NOTE.  log2(N) shuffle-exchange passes are a correct
// *max-finding* network (tournament property: the true maximum survives
// every comparison it enters), but NOT a full sorting network — bitonic
// sort needs log2N*(log2N+1)/2 passes.  We implement the paper's schedule
// verbatim, and additionally provide a bitonic schedule (full sort) and
// odd-even transposition (N passes) as configurable extensions; the
// ablation bench quantifies how sorted the paper-schedule block really is.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/decision_block.hpp"
#include "hw/fields.hpp"
#include "hw/simd_kernel.hpp"

namespace ss::telemetry {
class DecisionAudit;
}  // namespace ss::telemetry

namespace ss::hw {

/// Pairing schedule the Control & Steering unit programs into the muxes.
enum class SortSchedule : std::uint8_t {
  kPerfectShuffle,  ///< the paper's schedule: log2(N) shuffle-exchange passes
  kBitonic,         ///< Batcher bitonic merge-exchange: full sort, O(log^2 N)
  kOddEven,         ///< odd-even transposition: full sort, N passes
};

/// Number of passes a schedule takes for n slots (n a power of two >= 2).
[[nodiscard]] unsigned schedule_passes(SortSchedule s, unsigned n);

/// One compare-exchange pass of the single-stage network.
/// `pairing[i]` gives, for decision block i, the two lane indices it
/// compares this pass.  After the call the winner occupies the lower lane.
struct PairSpec {
  unsigned lo, hi;
  bool descending = false;  ///< bitonic passes flip some comparators
};

/// The recirculating network itself.  Holds N lanes of attribute words and
/// steps them through the configured schedule.  The object is reused every
/// decision cycle; `load()` corresponds to the Register Base blocks driving
/// their attribute buses.
class ShuffleNetwork {
 public:
  ShuffleNetwork(unsigned slots, SortSchedule schedule, ComparisonMode mode,
                 simd::KernelChoice kernel = simd::KernelChoice::kAuto);

  /// Drive slot attribute words onto the lanes (lane i <- words[i]).
  void load(std::span<const AttrWord> words);

  /// Direct-store LOAD path: the Register Base blocks write their
  /// attribute buses straight into this lane file
  /// (RegisterBlock::publish_lanes), then the chip seals the decision
  /// with load_lanes().  The lanes() / winner() views are refreshed when
  /// the decision cycle completes (or on the first scalar step()).
  [[nodiscard]] simd::LaneRegs& lane_file() { return regs_; }

  /// True while the lane registers (not the AttrWord mirror) hold the
  /// authoritative lane state — i.e. nothing has materialized them back
  /// since the last register-resident decision.  The chip's incremental
  /// LOAD path requires this: it patches individual lanes in place.
  [[nodiscard]] bool lanes_resident() const { return soa_loaded_; }

  /// Seal a lane_file() publish.  `pending_mask` holds the accumulated
  /// per-lane pending bits (bit i == lane i backlogged).
  void load_lanes(std::uint32_t pending_mask) {
    const std::uint32_t full =
        slots_ == 32 ? 0xFFFFFFFFu : ((1u << slots_) - 1u);
    all_pending_ = (pending_mask & full) == full;
    soa_loaded_ = true;
    pass_ = 0;
  }

  /// Run one pass (one hardware cycle of the SCHEDULE state).  Returns the
  /// number of decision blocks that swapped their operands this pass (used
  /// by tests and by the activity-based power proxy in the area model).
  unsigned step();

  /// Run all remaining passes of the decision cycle.
  void run_all();

  /// True once the schedule's passes have all executed.
  [[nodiscard]] bool done() const { return pass_ == total_passes_; }

  [[nodiscard]] unsigned passes_executed() const { return pass_; }
  [[nodiscard]] unsigned total_passes() const { return total_passes_; }
  [[nodiscard]] unsigned slots() const { return slots_; }

  /// Lane contents after the executed passes.  With the BA configuration
  /// this is the *block*: lane 0 holds the max-priority stream.  When a
  /// kernel decision ran on the lane registers, the AttrWord view is
  /// gathered lazily on first access.
  [[nodiscard]] std::span<const AttrWord> lanes() const {
    if (soa_loaded_) materialize_lanes();
    return lanes_;
  }

  /// Max-finding result (lane 0).  Valid once done().
  [[nodiscard]] const AttrWord& winner() const { return lanes()[0]; }

  /// Max-finding result ID straight from the lane registers — the WR
  /// grant path, with no AttrWord materialization.
  [[nodiscard]] SlotId winner_id() const {
    return soa_loaded_ ? static_cast<SlotId>(regs_.id[0]) : lanes_[0].id;
  }

  /// Append the IDs of the backlogged lanes in lane order (the BA grant
  /// *block*), read straight from the lane registers.
  void block_ids(std::vector<SlotId>& out) const;

  /// The pairings used for a given pass (exposed for the steering-logic
  /// tests: the mux programming must be a perfect matching every pass).
  [[nodiscard]] const std::vector<PairSpec>& pairings(unsigned pass) const {
    return schedule_pairs_[pass];
  }

  /// Cumulative compare-exchange swaps (lane buses that toggled).  A
  /// proxy for dynamic switching activity: the BA configuration routes
  /// loser buses too, so its activity per decision exceeds WR's — the
  /// power side of the paper's area/clock tradeoff.
  [[nodiscard]] std::uint64_t total_swaps() const { return total_swaps_; }
  [[nodiscard]] std::uint64_t total_comparisons() const {
    return total_comparisons_;
  }

  /// Comparisons whose operands included at least one pending stream —
  /// the exact denominator of the audit plane (counted unconditionally
  /// so unsampled decisions keep an exact tally without the
  /// per-comparison audit callback cost).
  [[nodiscard]] std::uint64_t total_pending_comparisons() const {
    return pending_comparisons_;
  }

  /// Restart the pass counter for the next decision cycle.
  void reset();

  /// Provenance hook: when attached, every comparison with at least one
  /// pending operand reports (winner, loser, rule) to the audit profile.
  /// Observation only — lane routing is unchanged.  Pass nullptr to detach.
  void attach_audit(telemetry::DecisionAudit* audit) {
    audit_ = audit;
    audit_live_ = audit != nullptr;
  }

  /// Per-decision sampling gate: when false the per-comparison callback
  /// is skipped wholesale (the chip's unsampled path — exact tallies
  /// still flow through total_pending_comparisons and the decision-level
  /// hooks).  Re-enabled per decision by the chip; attach_audit resets it
  /// to live so direct users get the full-rate behavior.
  void set_audit_live(bool live) { audit_live_ = live && audit_ != nullptr; }

  /// The decision kernel this network resolved to (SS_SIMD / CPU aware).
  /// kReference is the per-pair hw::decide() path; kSwar / kAvx2 run the
  /// branch-free stage kernel when run_all() executes a whole decision
  /// cycle without a live audit hook (sampled decisions always take the
  /// reference path so per-comparison rule provenance is preserved).
  [[nodiscard]] simd::Kernel kernel() const { return kernel_; }

 private:
  void build_schedule(SortSchedule s);
  /// Gather the lane registers back into the AttrWord view after a
  /// kernel-run decision (or an SoA load followed by scalar stepping).
  /// Const because it only refreshes the lazily-maintained AttrWord
  /// mirror of the lane registers (lanes_ / soa_loaded_ are mutable).
  void materialize_lanes() const;

  unsigned slots_;
  ComparisonMode mode_;
  simd::Kernel kernel_ = simd::Kernel::kReference;
  unsigned total_passes_ = 0;
  unsigned pass_ = 0;
  std::uint64_t total_swaps_ = 0;
  std::uint64_t total_comparisons_ = 0;
  std::uint64_t pending_comparisons_ = 0;
  std::uint64_t total_pairs_ = 0;  ///< comparisons per full decision cycle
  bool all_pending_ = false;  ///< every loaded lane backlogged (pass-invariant)
  bool audit_live_ = false;   ///< per-decision comparison-callback gate
  /// Lane registers hold newer state than lanes_ (mutable pair: lanes_ is
  /// a lazily-refreshed view of regs_, updated from const accessors).
  mutable bool soa_loaded_ = false;
  mutable std::vector<AttrWord> lanes_;
  std::vector<std::vector<PairSpec>> schedule_pairs_;  // [pass][block]
  std::vector<simd::PassPlan> plan_;  ///< vector-lowered schedule_pairs_
  simd::LaneRegs regs_;               ///< SoA lane registers (kernel state)
  telemetry::DecisionAudit* audit_ = nullptr;
};

/// Pure tournament max-finder used by the WR configuration: only winners
/// are routed forward, so after log2(N) cycles a single stream remains.
/// Returns the winning attribute word; `cmp_count` (optional) receives the
/// number of comparisons performed (N-1, one per Decision block firing).
[[nodiscard]] AttrWord tournament_max(std::span<const AttrWord> words,
                                      ComparisonMode mode,
                                      unsigned* cmp_count = nullptr);

}  // namespace ss::hw
