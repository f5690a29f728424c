// register_block.hpp — per-stream state storage and attribute adjustment.
//
// A Register Base block ("Stream-slot") holds one stream's service
// attributes in CLB flip-flops and applies the DWCS attribute adjustments
// locally and concurrently every PRIORITY_UPDATE cycle (Section 4.3):
//
//   * the *winner* stream (its ID is circulated back through the network)
//     has its priority effectively lowered — the served packet consumes a
//     window position and the deadline advances by the request period;
//   * *loser* streams whose head-of-line deadline has expired take the
//     deadline-miss path — a tolerable loss consumes a window position,
//     a violated constraint (x' already 0) raises the stream's priority by
//     growing the window denominator (Table-2 rule 3 then favours it).
//
// Update-rule provenance: the ShareStreams paper defers the exact rules to
// DWCS (West & Poellabauer, RTSS 2000); the rules below are that paper's
// service/violation adjustments made bit-exact in the 8-bit loss fields.
// DESIGN.md §2 records this interpretation.
#pragma once

#include <cstdint>

#include "hw/fields.hpp"
#include "hw/simd_kernel.hpp"

namespace ss::hw {

/// Discipline mapping for a slot.  Selecting a mode configures which parts
/// of the update datapath are active (the unified-architecture insight of
/// Section 2: fair-queuing/priority-class simply bypass the update cycle).
enum class SlotMode : std::uint8_t {
  kDwcs,          ///< full window-constrained updates
  kEdf,           ///< deadline bookkeeping only; window fields frozen
  kStaticPrio,    ///< nothing updates; loss_den carries the priority
  kFairTag,       ///< fair-queuing service tags; update cycle bypassed
};

/// Static (load-time) configuration of a stream-slot.
struct SlotConfig {
  SlotMode mode = SlotMode::kDwcs;
  std::uint16_t period = 1;   ///< request period T_i (vtime units)
  Loss loss_num = 0;          ///< original x_i
  Loss loss_den = 1;          ///< original y_i (also priority in kStaticPrio)
  bool droppable = true;      ///< late packets are dropped (deadline advances)
  Deadline initial_deadline{};///< deadline of the first request
};

/// Performance counters each slot maintains (the paper: "missed deadlines
/// being registered in performance counters for each stream-slot").
struct SlotCounters {
  std::uint64_t missed_deadlines = 0;   ///< update cycles with expired head
  std::uint64_t violations = 0;         ///< window-constraint violations
  std::uint64_t serviced = 0;           ///< frames granted to this slot
  std::uint64_t late_transmissions = 0; ///< frames that left after deadline
  std::uint64_t winner_cycles = 0;      ///< decision cycles won (circulated)

  friend bool operator==(const SlotCounters&, const SlotCounters&) = default;
};

/// One Register Base block.
class RegisterBlock {
 public:
  RegisterBlock() = default;

  /// LOAD state: latch configuration and initial attributes.
  void load(SlotId id, const SlotConfig& cfg);

  /// `n` new requests (packet arrivals) for this slot, n >= 1.  `arrival`
  /// is the 16-bit arrival-time offset the Stream processor communicated
  /// for the first; only a request into an empty slot latches its
  /// arrival, so the later ones carry no stamp.
  void push_requests(Arrival arrival, std::uint32_t n);
  void push_request(Arrival arrival) { push_requests(arrival, 1); }

  /// Attribute word currently driven onto the shuffle network.
  [[nodiscard]] AttrWord attrs() const;

  /// Drive this slot's attribute bus into row `lane` of a lane file (the
  /// chip's slot-ordered bus copy) — the same 54 bits attrs()
  /// materializes, widened to the 16-bit per-field lanes the decision
  /// kernel consumes.
  void publish_lanes(simd::LaneRegs& lr, unsigned lane) const {
    lr.deadline[lane] = deadline_.raw();
    lr.arrival[lane] = arrival_.raw();
    lr.loss_num[lane] = xp_;
    lr.loss_den[lane] = yp_;
    lr.id[lane] = id_;
    lr.pend[lane] =
        static_cast<std::uint16_t>(0u - static_cast<unsigned>(pending_ > 0));
  }

  /// PRIORITY_UPDATE when this slot's frame was granted this decision
  /// cycle.  `circulated` — this slot's ID was the one circulated through
  /// the network (it receives the winner window adjustment; in block mode
  /// only one of the N granted slots is circulated).  `now` — vtime at
  /// which the frame left on the link.  Returns true if the transmitted
  /// frame met its deadline.
  bool service_update(std::uint64_t now, bool circulated);

  /// Outcome of the miss path: whether a miss was registered, whether it
  /// violated the window constraint (counters().violations advanced), and
  /// whether the late head request was dropped (droppable streams only).
  /// The systems software needs `dropped` to discard the corresponding
  /// frame from the host-side queue.
  struct MissResult {
    bool missed = false;
    bool violated = false;
    bool dropped = false;
  };

  /// PRIORITY_UPDATE miss path for a slot that was NOT granted: applies
  /// the loser adjustment iff the head-of-line deadline has expired at
  /// vtime `now`.  Idle, fair-queuing and static-priority slots never
  /// take it.
  MissResult miss_update(std::uint64_t now);

  [[nodiscard]] const SlotCounters& counters() const { return counters_; }
  [[nodiscard]] const SlotConfig& config() const { return cfg_; }
  [[nodiscard]] SlotId id() const { return id_; }
  [[nodiscard]] std::uint32_t backlog() const { return pending_; }
  [[nodiscard]] Deadline deadline() const { return deadline_; }
  [[nodiscard]] Loss loss_num() const { return xp_; }
  [[nodiscard]] Loss loss_den() const { return yp_; }

  /// True iff the head request is late at vtime `now`.  Convention: the
  /// deadline is "the end of the request period BY which the packet must
  /// be scheduled" (Section 2), so a grant issued at now == deadline is
  /// already late (<= comparison).  A sticky per-slot `expired` flip-flop
  /// latches the condition: once a head request has expired it stays
  /// expired until the head advances, which keeps the 16-bit serial
  /// comparison meaningful even when a non-droppable backlog pushes the
  /// head deadline more than half the number space behind vtime (a real
  /// 16-bit comparator would silently invert there; the latch is the
  /// 1-FF hardware fix, and it makes the chip match the 64-bit software
  /// oracle).  A pure query: only the PRIORITY_UPDATE paths (service and
  /// miss) set the latch.
  [[nodiscard]] bool deadline_expired(std::uint64_t now) const {
    return expired_latch_ || deadline_ <= Deadline{now};
  }

  /// The sticky expired flip-flop itself (the chip mirrors it as a mask).
  [[nodiscard]] bool expired_latched() const { return expired_latch_; }

  /// SRAM-interface write of the deadline field.  Used by the fair-queuing
  /// mapping, where the field carries the head packet's per-packet service
  /// tag rather than a period-derived deadline.
  void set_deadline(Deadline d) {
    deadline_ = d;
    expired_latch_ = false;
  }

 private:
  /// deadline_expired() that also sets the latch when the head is late.
  bool latch_expired(std::uint64_t now);
  void winner_window_adjust();
  /// Returns true when the loss was a window-constraint violation.
  bool loser_window_adjust();
  void reset_window_if_complete();

  SlotId id_ = 0;
  SlotConfig cfg_{};
  Deadline deadline_{};
  Arrival arrival_{};
  Loss xp_ = 0;  ///< current loss numerator x'
  Loss yp_ = 1;  ///< current loss denominator y'
  std::uint32_t pending_ = 0;
  bool expired_latch_ = false;  ///< sticky head-expired flip-flop
  SlotCounters counters_{};
};

/// Area of one Register Base block in Virtex-I slices (Section 5.1).
inline constexpr unsigned kRegisterBlockSlices = 150;

}  // namespace ss::hw
