// aggregation.hpp — streamlet aggregation into stream-slots.
//
// The paper's second tradeoff (Section 5.1): "If aggregate QoS is required
// over a set of streams without any per-stream QoS, then many streams
// (called streamlets, if aggregated) can be bound to a single Register
// Base block or Stream-slot. ... We assigned 100 streamlet queues to each
// stream-slot ... We simply used a round-robin service policy on the
// Stream processor between streamlets. ... We were even able to support
// multiple sets of streamlets within a stream-slot", with sets receiving
// weighted shares (Figure 10's Stream-slot 4 has set 1 at double the
// bandwidth of set 2).
//
// The AggregationManager runs entirely on the Stream processor: when the
// FPGA grants a slot, it picks the next streamlet — weighted round-robin
// across the slot's sets (a credit scheme), plain round-robin within a
// set — trading cheap host memory for scarce FPGA state storage.
#pragma once

#include <cstdint>
#include <vector>

namespace ss::core {

struct StreamletSet {
  std::uint32_t streamlets = 1;  ///< queues in this set
  std::uint32_t weight = 1;      ///< relative share of the slot's bandwidth

  friend bool operator==(const StreamletSet&, const StreamletSet&) = default;
};

class AggregationManager {
 public:
  /// Define the sets bound to one stream-slot.  Returns the slot's
  /// aggregation handle (index).
  std::uint32_t bind_slot(const std::vector<StreamletSet>& sets);

  [[nodiscard]] std::uint32_t streamlet_count(std::uint32_t slot) const;

  /// The FPGA granted `slot` one frame: choose which streamlet transmits.
  /// Returns (set index, streamlet index within the slot's global
  /// numbering 0..streamlet_count-1).
  struct Pick {
    std::uint32_t set;
    std::uint32_t streamlet;  ///< slot-global streamlet index
  };
  Pick on_grant(std::uint32_t slot);

  /// Grants delivered to each streamlet of a slot so far.
  [[nodiscard]] const std::vector<std::uint64_t>& grants(
      std::uint32_t slot) const {
    return slots_[slot].grants;
  }
  [[nodiscard]] std::uint64_t set_grants(std::uint32_t slot,
                                         std::uint32_t set) const {
    return slots_[slot].set_grants[set];
  }

 private:
  struct SetState {
    StreamletSet cfg;
    std::uint32_t base = 0;    ///< first slot-global streamlet index
    std::uint32_t cursor = 0;  ///< RR position within the set
    std::int64_t credit = 0;   ///< weighted-RR credit
  };
  struct SlotState {
    std::vector<SetState> sets;
    std::uint32_t total_streamlets = 0;
    std::vector<std::uint64_t> grants;      ///< per streamlet
    std::vector<std::uint64_t> set_grants;  ///< per set
  };
  std::vector<SlotState> slots_;
};

}  // namespace ss::core
