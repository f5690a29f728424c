// simd_kernel.hpp — branch-free vector evaluation of the Table-2 cascade.
//
// The paper's Decision blocks resolve a whole shuffle stage of pairwise
// comparisons in ONE hardware cycle because all N/2 comparators are
// physically parallel.  This kernel reproduces that width in software:
// the Register Base blocks drive their attributes straight into 16-bit
// SoA lanes (LaneRegs, one lane per slot), and one compare-exchange pass
// of the shuffle schedule executes as a short burst of vector
// instructions — every rule of Table 2 evaluated concurrently as lane
// masks, the verdict selected by mask blending, never a branch per pair.
//
// Two whole-plan vector kernels share the exact decision semantics of
// hw::decide(); each loads the lane file once, runs every pass of the
// schedule in registers and stores once:
//   * kAvx512 — 32 lanes per __m512i at the full 32-slot width: one
//     vpermw partner shuffle per field, cascade rules straight into
//     k-masks.  Compiled only when the toolchain supports -mavx512bw and
//     selected only when the CPU reports AVX-512BW at runtime.
//   * kAvx2 — 16 lanes per __m256i; a 32-slot butterfly pass is ~2 vector
//     bursts.  Compiled only when the toolchain supports -mavx2 and
//     selected only when the CPU reports AVX2 at runtime.
// kReference is the per-pair hw::decide() path: the differential referee,
// what SS_SIMD=REF forces, and the kernel of every network no vector
// kernel covers.  fit() picks one kernel per network, once.  The AVX-512
// kernel also carries block reuse (replace_dirty): re-placing a few
// changed rows in the previous sort instead of running the plan.
//
// Runtime selection: SS_SIMD environment variable (case-insensitive) —
//   unset / empty / AUTO -> widest kernel this binary AND CPU support
//                           (AVX-512BW, then AVX2, then the referee);
//   REF                  -> forced per-pair reference comparators;
//   AVX512               -> AVX-512 if available, degrading to AVX2 then
//                           the referee;
//   AVX2                 -> AVX2 if available, the referee otherwise
//                           (never upgrades — the differential legs pin
//                           the exact kernel they ask for).
// Any other value throws std::invalid_argument.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "hw/decision_block.hpp"
#include "hw/fields.hpp"

namespace ss::hw::simd {

/// Concrete kernel implementations (post-dispatch).
enum class Kernel : std::uint8_t { kReference, kAvx2, kAvx512 };

/// Configuration-time request (ChipConfig / ShuffleNetwork constructor).
enum class KernelChoice : std::uint8_t { kAuto, kReference, kAvx2, kAvx512 };

[[nodiscard]] const char* kernel_name(Kernel k);

/// True iff the binary carries the AVX2 kernel AND this CPU executes it.
[[nodiscard]] bool avx2_supported();

/// True iff the binary carries the AVX-512 kernel AND this CPU executes it.
[[nodiscard]] bool avx512_supported();

/// Parse an SS_SIMD value: "AUTO", "REF", "AVX2" or "AVX512",
/// case-insensitive; nullptr/empty = AUTO.  Any other value throws
/// std::invalid_argument naming the four tokens.  Exposed for tests.
[[nodiscard]] KernelChoice parse_choice(const char* value);

/// Resolve a choice against CPU support (kAuto/kAvx2 degrade to
/// kReference when AVX2 is unavailable).
[[nodiscard]] Kernel resolve(KernelChoice c);

/// The process default: SS_SIMD env + CPU detection, computed once.
[[nodiscard]] Kernel default_kernel();

/// Vector lane registers: every attribute field widened to one 16-bit
/// lane per slot so a 16-slot field fits one __m256i.  `pend` lanes are
/// saturated masks (0 / 0xFFFF) so pendingness composes with the other
/// rule masks without a widening step per pass.
struct LaneRegs {
  alignas(32) std::uint16_t deadline[kMaxSlots] = {};
  alignas(32) std::uint16_t arrival[kMaxSlots] = {};
  alignas(32) std::uint16_t loss_num[kMaxSlots] = {};
  alignas(32) std::uint16_t loss_den[kMaxSlots] = {};
  alignas(32) std::uint16_t id[kMaxSlots] = {};
  alignas(32) std::uint16_t pend[kMaxSlots] = {};

  /// Scatter one AttrWord across the lanes (the AoS-to-lane bridge).
  void set(unsigned lane, const AttrWord& w) {
    assert(lane < kMaxSlots);
    deadline[lane] = w.deadline.raw();
    arrival[lane] = w.arrival.raw();
    loss_num[lane] = w.loss_num;
    loss_den[lane] = w.loss_den;
    id[lane] = w.id;
    pend[lane] = w.pending ? 0xFFFFu : 0u;
  }
  /// Gather one (possibly permuted) lane back into the AoS view.
  [[nodiscard]] AttrWord get(unsigned lane) const {
    assert(lane < kMaxSlots);
    AttrWord w;
    w.deadline = Deadline{deadline[lane]};
    w.arrival = Arrival{arrival[lane]};
    w.loss_num = static_cast<Loss>(loss_num[lane]);
    w.loss_den = static_cast<Loss>(loss_den[lane]);
    w.id = static_cast<SlotId>(id[lane]);
    w.pending = pend[lane] != 0;
    return w;
  }
};

/// One pass of a schedule, pre-lowered for vector execution by the
/// steering logic (ShuffleNetwork::build_schedule).
struct PassPlan {
  /// Butterfly passes pair lane i with lane i^stride — every perfect-
  /// shuffle and bitonic pass has this shape and vectorizes; odd-even
  /// transposition does not and runs on the reference comparators.
  bool butterfly = false;
  unsigned stride = 0;
  /// Per-lane comparator direction, pair-symmetric (0 / 0xFFFF).
  alignas(32) std::uint16_t desc[kMaxSlots] = {};
  /// The same directions as a lane bitmask (bit i == desc[i] != 0) — the
  /// k-mask form the AVX-512 kernel consumes without a per-pass load.
  std::uint32_t desc_bits = 0;
  /// Generic pairing, always populated (the reference comparators
  /// iterate it).
  struct Pair {
    std::uint16_t lo, hi;
    std::uint16_t desc;  ///< 0 or 1
  };
  std::vector<Pair> pairs;
};

struct KernelStats {
  std::uint64_t swaps = 0;          ///< compare-exchanges that swapped
  std::uint64_t pending_pairs = 0;  ///< pairs with >=1 pending operand
};

/// The kernel that runs `plan` over n slots when `k` is the resolved
/// request: k itself where it covers the plan, AVX2 for a 16-slot plan on
/// an AVX-512 host, otherwise kReference.  A vector kernel covers only
/// all-butterfly plans — AVX-512 at 32 slots, AVX2 at 16 or 32.
[[nodiscard]] Kernel fit(Kernel k, unsigned n, std::span<const PassPlan> plan);

/// Run every pass of `plan` over the lane registers on vector kernel `k`,
/// which must be what fit() returned for this plan.  Counter semantics
/// match the scalar ShuffleNetwork::step() exactly.
KernelStats run_plan(LaneRegs& regs, unsigned n,
                     std::span<const PassPlan> plan, ComparisonMode mode,
                     Kernel k);

/// Most dirty slots a block-reuse re-place takes.  Each one costs a
/// broadcast cascade compare: measured on a 4-vCPU AVX-512BW Xeon, the
/// re-place took about 25 ns plus 9-12 ns per dirty slot, against
/// 260-300 ns for LOAD plus the 15 bitonic passes, crossing over near 24
/// dirty slots (DESIGN.md §12, "Block reuse").  16 keeps a margin below
/// it.
inline constexpr unsigned kMaxReplaced = 16;

/// Block reuse on the 32-slot AVX-512 kernel, kTagOnly only.  `sorted`
/// holds the full sort of an earlier LOAD of `bus` (a slot-ordered lane
/// file, row s = slot s) and every row outside `dirty` is unchanged since
/// that LOAD.  Removes the dirty slots' lanes and inserts their new rows
/// at their ranks among all current words, leaving in `sorted` exactly
/// what a sorting network run on `bus` would.  Returns false, `sorted`
/// untouched, unless that is provably so: at most kMaxReplaced dirty
/// slots, row s of `bus` carries id s, every dirty slot sits in exactly
/// one lane of `sorted`, and every deadline and arrival stamp of `sorted`
/// and `bus` lies in one serial half-window.  The caller guarantees that
/// every lane pends in both.
[[nodiscard]] bool replace_dirty(LaneRegs& sorted, const LaneRegs& bus,
                                 std::uint32_t dirty);

}  // namespace ss::hw::simd
