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
// Because the paper's schedule only finds the maximum, the order of a BA
// block below lane 0 depends on which lanes each pass paired, so LOAD
// order is part of the semantics: Register Base block i drives lane i at
// every LOAD, whatever the previous decision sorted.  A fully sorting
// schedule over a strict total order is the exception: its output is the
// unique sorted permutation, which is what lets replace() reuse the
// previous decision's sort (DESIGN.md §12, "Block reuse").
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

/// One compare-exchange pair of a pass: the Decision block compares lanes
/// `lo` and `hi` and routes the winner to the lower lane (to the upper one
/// when `desc` is set — bitonic passes flip some comparators).  The same
/// pair list drives the reference comparators and the vector kernels.
using PairSpec = simd::PassPlan::Pair;

/// The recirculating network itself.  Its lanes live only in the SoA lane
/// file (simd::LaneRegs, one 16-bit lane per slot and field), which it
/// steps through the configured schedule.  The object is reused every
/// decision cycle; LOAD corresponds to the Register Base blocks driving
/// their attribute buses, block i onto lane i.
class ShuffleNetwork {
 public:
  ShuffleNetwork(unsigned slots, SortSchedule schedule, ComparisonMode mode,
                 simd::KernelChoice kernel = simd::KernelChoice::kAuto);

  /// Drive slot attribute words onto the lanes (lane i <- words[i]) and
  /// seal the decision.
  void load(std::span<const AttrWord> words);

  /// The chip's LOAD: copy its slot-ordered attribute buses (row i = slot
  /// i) onto the lane file and seal the decision.  `pending_mask` holds
  /// the per-lane pending bits (bit i == lane i backlogged).
  void load_lanes(const simd::LaneRegs& bus, std::uint32_t pending_mask);

  /// Block reuse: complete this decision cycle without a LOAD or a pass,
  /// by re-placing the `dirty` rows of `bus` in the lane file's previous
  /// sort (simd::replace_dirty).  Taken only when the lane file holds the
  /// full sort of an earlier load_lanes(bus, ...) with every row outside
  /// `dirty` unchanged since — the caller's guarantee — and:
  ///   * the fitted kernel is AVX-512 and the schedule fully sorts (32
  ///     slots, bitonic), and the comparator is kTagOnly;
  ///   * the sort was a whole-decision run_all() or a re-place, with no
  ///     load(), step() or load_lanes() since;
  ///   * every lane pended at that LOAD and pends in `pending_mask`;
  ///   * no live audit hook (sampled decisions keep per-comparison
  ///     provenance);
  ///   * simd::replace_dirty's own conditions hold (at most
  ///     simd::kMaxReplaced dirty rows, one serial half-window).
  /// The lane file then equals what load_lanes(bus, pending_mask) plus
  /// run_all() would leave, and the comparison counters advance exactly
  /// as run_all() would advance them; total_swaps() does not.  Returns
  /// false, changing nothing, otherwise.
  [[nodiscard]] bool replace(const simd::LaneRegs& bus,
                             std::uint32_t pending_mask, std::uint32_t dirty);

  /// Run one pass (one hardware cycle of the SCHEDULE state) on the
  /// reference comparators.  Returns the number of decision blocks that
  /// swapped their operands this pass.
  unsigned step();

  /// Run all remaining passes of the decision cycle.
  void run_all();

  /// True once the schedule's passes have all executed.
  [[nodiscard]] bool done() const { return pass_ == total_passes_; }

  [[nodiscard]] unsigned passes_executed() const { return pass_; }
  [[nodiscard]] unsigned total_passes() const { return total_passes_; }
  [[nodiscard]] unsigned slots() const { return slots_; }

  /// Lane contents after the executed passes, gathered from the lane
  /// file.  With the BA configuration this is the *block*: lane 0 holds
  /// the max-priority stream.
  [[nodiscard]] std::vector<AttrWord> lanes() const;

  /// Max-finding result (lane 0).  Valid once done().
  [[nodiscard]] AttrWord winner() const { return regs_.get(0); }

  /// Max-finding result ID straight from the lane file — the WR grant
  /// path.
  [[nodiscard]] SlotId winner_id() const {
    return static_cast<SlotId>(regs_.id[0]);
  }

  /// Append the IDs of the backlogged lanes in lane order (the BA grant
  /// *block*), read straight from the lane file.  After a full decision
  /// on a fully sorting schedule the backlogged lanes are a prefix: the
  /// pending-only rule overrides every other rule, so projected onto the
  /// pending bit the network sorts a 0-1 sequence.  The block is then a
  /// copy of that prefix; the perfect-shuffle schedule compacts per lane.
  void block_ids(std::vector<SlotId>& out) const;

  /// The pairings used for a given pass (exposed for the steering-logic
  /// tests: the mux programming must be a perfect matching every pass).
  [[nodiscard]] const std::vector<PairSpec>& pairings(unsigned pass) const {
    return plan_[pass].pairs;
  }

  /// Cumulative compare-exchange swaps (lane buses that toggled) over the
  /// passes actually run; a re-placed decision runs none.
  [[nodiscard]] std::uint64_t total_swaps() const { return total_swaps_; }
  [[nodiscard]] std::uint64_t total_comparisons() const {
    return total_comparisons_;
  }

  /// Decision cycles completed by replace() instead of the passes.
  [[nodiscard]] std::uint64_t total_reuses() const { return reuses_; }

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

  /// The decision kernel that runs this network, fitted once at
  /// construction from SS_SIMD, the CPU, the slot count and the schedule
  /// (simd::fit).  kReference is the per-pair hw::decide() path; kAvx2 /
  /// kAvx512 run the whole plan in vector registers when run_all()
  /// executes a whole decision cycle without a live audit hook (sampled
  /// decisions take the reference path so per-comparison rule provenance
  /// is preserved).  Both read and write the same lane file, so the
  /// choice never changes the result.
  [[nodiscard]] simd::Kernel kernel() const { return kernel_; }

 private:
  void build_schedule(SortSchedule s);
  /// Seal a LOAD: record its pending bits and restart the pass counter.
  /// The lane file no longer holds a sort.
  void seal(std::uint32_t pending_mask);
  /// Run `passes` passes on the reference comparators: gather the lane
  /// file into AttrWords once, step them through hw::decide(), scatter
  /// once.  Returns the swaps of those passes.
  unsigned run_reference(unsigned passes);

  unsigned slots_;
  ComparisonMode mode_;
  simd::Kernel kernel_ = simd::Kernel::kReference;
  unsigned total_passes_ = 0;
  unsigned pass_ = 0;
  std::uint64_t total_swaps_ = 0;
  std::uint64_t total_comparisons_ = 0;
  std::uint64_t pending_comparisons_ = 0;
  std::uint64_t total_pairs_ = 0;  ///< comparisons per full decision cycle
  std::uint64_t reuses_ = 0;
  unsigned pending_lanes_ = 0;  ///< backlogged lanes at the last LOAD
  bool all_pending_ = false;  ///< every loaded lane backlogged (pass-invariant)
  bool sorts_ = false;      ///< the schedule fully sorts (not perfect shuffle)
  bool reusable_ = false;   ///< replace() may run: AVX-512, sorting, kTagOnly
  /// The lane file holds the full sort of the last LOAD: set only by a
  /// whole-decision run_all() on a sorting schedule or by replace().
  bool sorted_ = false;
  bool audit_live_ = false;   ///< per-decision comparison-callback gate
  std::vector<simd::PassPlan> plan_;  ///< the schedule, one entry per pass
  simd::LaneRegs regs_;               ///< the lane file
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
