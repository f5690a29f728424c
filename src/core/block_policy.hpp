// block_policy.hpp — when may a sorted block be reused across packet-times?
//
// Section 5.1's evaluation summary states the reuse conditions:
//
//   * deadline-constrained real-time streams: the block can always be
//     scheduled in one transaction, because queued packets' deadlines do
//     not change during scheduling;
//   * priority-class disciplines: reusable, since relative priorities
//     between queues are constant;
//   * fair-queuing (service-tag) disciplines: reusable only while every
//     newly computed finish-tag is higher than the tags already in the
//     block — "if the priority assignment engine assigns monotonically
//     increasing priorities across all streams then block decision can be
//     leveraged"; otherwise the queues need a re-sort;
//   * fair-share bandwidth allocation: NOT reusable (transmitting a whole
//     ordered block on one link "can skew bandwidth allocations
//     considerably"), which is why the max-finding configuration is
//     "critical for bandwidth allocation".
//
// Only the fair-queuing case needs a runtime answer; BlockReuseChecker
// gives it.
#pragma once

#include <cstdint>
#include <vector>

namespace ss::core {

/// Runtime monotonic-tag check for fair-queuing disciplines: tracks the
/// maximum tag inside the current block; a new packet whose finish-tag is
/// >= that maximum leaves the block valid, anything smaller invalidates it.
class BlockReuseChecker {
 public:
  /// Begin a new block with the given sorted service tags.
  void new_block(const std::vector<std::uint64_t>& tags);

  /// Observe a newly computed finish-tag; returns true if the current
  /// block remains usable.
  bool on_new_tag(std::uint64_t tag);

  [[nodiscard]] bool block_valid() const { return valid_; }
  [[nodiscard]] std::uint64_t reuses() const { return reuses_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  std::uint64_t max_tag_ = 0;
  bool valid_ = false;
  std::uint64_t reuses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace ss::core
