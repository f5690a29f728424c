// flight_recorder.hpp — bounded black-box ring of scheduler decisions.
//
// The fault plane (DESIGN.md §10) fails over to the shadow scheduler, but
// until now it discarded the state that led there.  The flight recorder is
// the black box: a bounded, always-on ring holding the last N committed
// decision cycles — winner and full grant block, the losing pending slots,
// which Table-2 rule fired how often inside the decision, every slot's
// deadline/loss/violation state after the update phase, the control-FSM
// phase, the robust-health state and the cumulative fault count.  On
// failover, retry exhaustion or differential divergence the owning
// AuditSession dumps the ring as part of the run document's `audit`
// section (docs/formats.md); `--out` on `ss_cli run` and `fuzz_ss` writes
// it on demand.
//
// Concurrency contract mirrors FrameTrace: record() and the read accessors
// take one uncontended mutex, so a monitor thread may export while the
// scheduler thread records.  Recording one entry is a struct copy — no
// allocation after construction.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ss::telemetry {

/// Streams/slots the audit layer can describe (mirrors hw::kMaxSlots; the
/// hw layer static_asserts the bound so the two cannot drift apart).
inline constexpr std::size_t kAuditMaxStreams = 32;

/// Distinct comparator rule paths (Table-2 rules plus the pending-only and
/// id-tie-break paths).  Indices mirror hw::Rule / dwcs::OrderRule values;
/// static_asserts in those layers pin the alignment.
inline constexpr std::size_t kAuditRules = 7;

/// Stable lowercase name for a rule index ("deadline", "fcfs_arrival", ...).
[[nodiscard]] const char* audit_rule_name(std::size_t rule) noexcept;

/// One committed decision cycle, snapshotted after the UPDATE phase.
struct DecisionRecord {
  std::uint64_t decision = 0;   ///< decision-cycle index (0-based)
  std::uint64_t vtime = 0;      ///< virtual time at the start of the cycle
  std::uint64_t hw_cycles = 0;  ///< hardware cycles this decision consumed
  std::uint8_t fsm_phase = 0;   ///< control-FSM state when committed
  std::uint8_t health = 0;      ///< robust health FSM (0 H, 1 D, 2 F)
  std::uint64_t faults = 0;     ///< cumulative faults injected so far
  std::int16_t circulated = -1; ///< slot id on the circulating wire, -1 none
  std::uint8_t n_grants = 0;    ///< grants[0] is the block winner
  std::uint8_t n_losers = 0;    ///< pending slots that were not granted
  std::uint8_t n_streams = 0;
  std::array<std::uint8_t, kAuditMaxStreams> grants{};
  std::array<std::uint8_t, kAuditMaxStreams> losers{};
  /// Rule firings inside this decision's comparator tournament.
  std::array<std::uint16_t, kAuditRules> rules{};

  /// Per-slot register state after the update phase.
  struct StreamSnap {
    std::uint64_t deadline = 0;    ///< raw 16-bit deadline field
    std::uint64_t violations = 0;  ///< cumulative window violations
    std::uint32_t backlog = 0;
    std::uint8_t loss_num = 0;
    std::uint8_t loss_den = 0;
    bool pending = false;
  };
  std::array<StreamSnap, kAuditMaxStreams> streams{};
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(const DecisionRecord& r);

  /// Entries currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Total records ever seen, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const;
  /// Most recent record; default-constructed when empty.
  [[nodiscard]] DecisionRecord last() const;

  /// Retained window oldest -> newest.
  [[nodiscard]] std::vector<DecisionRecord> entries() const;

  /// JSON array of the retained window, oldest -> newest, no newlines.
  [[nodiscard]] std::string to_json() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<DecisionRecord> ring_;
  std::size_t head_ = 0;   ///< next write position
  std::size_t count_ = 0;  ///< valid entries
  std::uint64_t recorded_ = 0;
};

}  // namespace ss::telemetry
