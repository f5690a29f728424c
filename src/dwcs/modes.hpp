// modes.hpp — mapping user-level stream requirements onto DWCS slots.
//
// The paper's prototype "can provide scheduling support for a mix of EDF,
// static-priority and fair-share streams based on user specifications"
// (abstract; details deferred to [13]).  This module is that mapping
// layer: a StreamRequirement describes what the user wants, and
// to_slot_config()/to_stream_spec() translate it into the attribute
// configuration the unified architecture understands:
//
//   * EDF — period-driven deadlines, window fields inert;
//   * static priority — deadlines pinned equal, priority level carried in
//     the loss-denominator field (Table-2 rule 3 orders by it), no updates;
//   * fair share — weight w_i becomes request period T_i = W / w_i where
//     W = sum of weights, so stream i receives w_i / W of the link
//     (utilization sums to exactly 1); the first deadline is one period
//     out, whatever the requirement's initial_deadline says;
//   * window-constrained — the full DWCS (T_i, x_i/y_i) specification.
#pragma once

#include <cstdint>
#include <vector>

#include "dwcs/reference_scheduler.hpp"
#include "hw/register_block.hpp"
#include "hw/scheduler_chip.hpp"

namespace ss::dwcs {

enum class RequirementKind : std::uint8_t {
  kEdf,
  kStaticPriority,
  kFairShare,
  kWindowConstrained,
};

struct StreamRequirement {
  RequirementKind kind = RequirementKind::kEdf;
  std::uint32_t period = 1;    ///< EDF / window-constrained request period
  std::uint8_t priority = 0;   ///< static priority level (higher = better)
  double weight = 1.0;         ///< fair-share weight
  std::uint8_t loss_num = 0;   ///< window-constrained x_i
  std::uint8_t loss_den = 1;   ///< window-constrained y_i
  bool droppable = true;
  std::uint64_t initial_deadline = 1;  ///< ignored by fair share (= T_i)
};

/// Fair-share period assignment for a set of weights: T_i = round(W/w_i),
/// clamped to >= 1.  Returns one period per requirement (non-fair-share
/// entries keep their configured period).
[[nodiscard]] std::vector<std::uint32_t> fair_share_periods(
    const std::vector<StreamRequirement>& reqs);

/// Translate a requirement into the hardware slot configuration.
/// `fair_period` must be the entry computed by fair_share_periods() when
/// kind == kFairShare (ignored otherwise).
[[nodiscard]] hw::SlotConfig to_slot_config(const StreamRequirement& r,
                                            std::uint32_t fair_period);

/// Translate a requirement into the software reference-scheduler spec.
[[nodiscard]] StreamSpec to_stream_spec(const StreamRequirement& r,
                                        std::uint32_t fair_period);

/// The reference-scheduler options that decide exactly as a chip with
/// configuration `cc` does: block/winner mode, emission end and batch
/// depth carry over, and the tag-only comparator is the EDF comparison.
/// The guard's lockstep shadow and the differential oracle both use it.
[[nodiscard]] ReferenceScheduler::Options reference_options(
    const hw::ChipConfig& cc);

}  // namespace ss::dwcs
