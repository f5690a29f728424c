// fields.hpp — bit-exact attribute fields of the ShareStreams fabric.
//
// Figure 4 of the paper fixes the register widths: 16-bit packet deadlines,
// 8-bit loss numerator, 8-bit loss denominator, 16-bit arrival times and
// 5-bit Register (stream-slot) IDs.  The simulator stores exactly these
// widths so that wrap-around and saturation behave like the hardware.
#pragma once

#include <cassert>
#include <cstdint>

#include "util/serial.hpp"

namespace ss::hw {

inline constexpr unsigned kDeadlineBits = 16;
inline constexpr unsigned kArrivalBits = 16;
inline constexpr unsigned kLossBits = 8;
inline constexpr unsigned kIdBits = 5;

/// Maximum stream-slots addressable by a 5-bit ID (the paper scales a
/// single Virtex-1000 from 4 to 32 slots).
inline constexpr unsigned kMaxSlots = 1u << kIdBits;

using Deadline = Serial<kDeadlineBits>;   ///< wrap-aware 16-bit deadline
using Arrival = Serial<kArrivalBits>;     ///< wrap-aware 16-bit arrival time
using Loss = std::uint8_t;                ///< 8-bit loss numerator/denominator
using SlotId = std::uint8_t;              ///< 5-bit register ID (0..31)

/// The attribute record a Register Base block drives onto the shuffle
/// network each SCHEDULE cycle: 16+8+8+16+5 = 53 bits of payload plus a
/// request-pending flag (an idle slot must always lose).
struct AttrWord {
  Deadline deadline{};
  Loss loss_num = 0;    ///< x' — losses still tolerable in current window
  Loss loss_den = 0;    ///< y' — remaining window length
  Arrival arrival{};
  SlotId id = 0;
  bool pending = false;  ///< slot has a backlogged request

  friend bool operator==(const AttrWord&, const AttrWord&) = default;
};

/// Pack an AttrWord into its 54-bit hardware encoding (bit 53 = pending).
/// Used by the SRAM/streaming interfaces and by tests that check the
/// encode/decode round-trip.
///
/// Checked contract: the ID field is 5 bits, so `unpack(pack(w)) == w`
/// only holds for `w.id < kMaxSlots`.  An out-of-range ID is a
/// construction bug upstream — asserted in debug builds, saturated to the
/// top slot in release builds so the encoding never silently aliases a
/// different slot's word (the old `& 0x1F` mask mapped id 33 onto slot 1).
[[nodiscard]] constexpr std::uint64_t pack(const AttrWord& w) {
  assert(w.id < kMaxSlots && "AttrWord.id exceeds the 5-bit hardware field");
  const std::uint64_t id = w.id < kMaxSlots ? w.id : kMaxSlots - 1;
  std::uint64_t v = 0;
  v |= static_cast<std::uint64_t>(w.deadline.raw());
  v |= static_cast<std::uint64_t>(w.loss_num) << 16;
  v |= static_cast<std::uint64_t>(w.loss_den) << 24;
  v |= static_cast<std::uint64_t>(w.arrival.raw()) << 32;
  v |= id << 48;
  v |= static_cast<std::uint64_t>(w.pending ? 1 : 0) << 53;
  return v;
}

[[nodiscard]] constexpr AttrWord unpack(std::uint64_t v) {
  AttrWord w;
  w.deadline = Deadline{v & 0xFFFFu};
  w.loss_num = static_cast<Loss>((v >> 16) & 0xFFu);
  w.loss_den = static_cast<Loss>((v >> 24) & 0xFFu);
  w.arrival = Arrival{(v >> 32) & 0xFFFFu};
  w.id = static_cast<SlotId>((v >> 48) & 0x1Fu);
  w.pending = ((v >> 53) & 1u) != 0;
  return w;
}

}  // namespace ss::hw
