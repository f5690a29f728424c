// audit.hpp — decision provenance and SLO burn attribution.
//
// The telemetry registry counts *what* the fabric did; this layer records
// *why*.  Every pairwise comparison in the shuffle network resolves
// through exactly one Table-2 rule (or the pending-only / id-tie-break
// paths of the comparator), and the DecisionAudit aggregates those rule
// firings into a per-stream profile: how often stream S won or lost, and
// on which rule.  The same per-cycle loss tracking attributes each
// window-constraint violation to a cause the moment the chip's miss
// sweep commits it — a lost tiebreak (with the losing rule), a
// fault-induced stall, or host queue overflow — feeding the per-stream
// burn counters of the run document's audit section and the registry's
// audit.burn.* counters.
//
// AuditSession bundles the profile with a FlightRecorder ring, a
// DecisionSampler and the dump policy: the robust layer pushes
// health/fault context in, the chip asks begin_decision() whether this
// decision is sampled, reports each violation as its miss sweep commits
// it, then calls on_decision() (sampled: full record) or
// on_decision_lite() (unsampled: the comparison tally only) once per
// committed decision; failover / retry exhaustion / differential
// divergence / watchdog rules freeze the audit section under their cause
// and hand it to the dump sink, the run-document writer (the `audit`
// section of `ss-run-v1`, docs/formats.md).
//
// Sampling contract: grants, drops, violations, per-cause burns and the
// total comparison count are exact at every sample rate; the per-rule
// win/loss profile, the lost-tiebreak per-rule detail (burn_rule) and the
// flight-recorder ring cover only sampled decisions (scaled estimates
// ride in the export).  Unsampled decisions attribute lost-tiebreak
// burns from the chip's contended-and-not-granted mask instead of the
// per-comparison callback, so the cause stays exact while the rule
// detail is sampled.  Decisions and winners are bit-identical whether
// sampling is 1, N or the audit is detached — the sampler gates
// observation, never arbitration.
//
// Layering: this header must not include src/hw — hw depends on telemetry.
// Rules and streams are plain indices whose alignment with hw::Rule /
// dwcs::OrderRule is pinned by static_asserts in those layers.
//
// Concurrency: every profile tally keeps the one-writer rule
// (metrics.hpp) and is safe to read from a monitor thread mid-run.  The
// writer is the scheduling thread: on_comparison / on_violation /
// end_decision must be called from the thread driving the chip, which
// also owns the per-cycle state (which rule each stream last lost on,
// rule counts inside the current decision).  note_fault / note_overflow
// may come from any thread; they are the only lock-prefixed RMWs here.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"

namespace ss::telemetry {

/// Why a window-constraint violation burned: the attribution categories of
/// the SLO burn report.
enum class BurnCause : std::uint8_t {
  kLostTiebreak = 0,   ///< lost a comparator rule this decision
  kFaultStall = 1,     ///< a fault was injected during this decision
  kQueueOverflow = 2,  ///< host ring rejected the frame
  kUnattributed = 3,   ///< none of the above observed this cycle
};

inline constexpr std::size_t kBurnCauses = 4;

/// Stable lowercase name ("lost_tiebreak", "fault_stall", ...).
[[nodiscard]] const char* burn_cause_name(std::size_t cause) noexcept;

/// Per-stream rule-firing profile plus violation-cause attribution.
class DecisionAudit {
 public:
  explicit DecisionAudit(std::uint32_t streams);

  [[nodiscard]] std::uint32_t streams() const noexcept { return streams_; }

  /// Sampling gate for the decision now starting: an unsampled cycle
  /// keeps only the cheap exact context (comparison tally, last-lost
  /// rule for burn attribution) and skips the per-rule profile atomics.
  /// Scheduling thread, once per decision; defaults to sampled.
  void begin_cycle(bool sampled) noexcept { cycle_sampled_ = sampled; }

  /// Hot path: one comparator resolved winner over loser via `rule`.
  /// Called from the scheduling thread for every comparison with at least
  /// one pending operand.  Inline on purpose: on an unsampled cycle this
  /// is a bounds check plus ONE byte store (the last-lost rule that exact
  /// burn attribution needs — the exact comparison tally arrives once per
  /// decision via add_comparisons from the network's unconditional
  /// counter); the tallies and profile atomics run out-of-line only when
  /// sampled.
  void on_comparison(std::uint32_t winner, std::uint32_t loser,
                     std::uint8_t rule) noexcept {
    if (winner >= kAuditMaxStreams || loser >= kAuditMaxStreams ||
        rule >= kAuditRules) {
      return;
    }
    cycle_lost_rule_[loser] = rule;
    if (cycle_sampled_) on_comparison_sampled(winner, loser, rule);
  }

  /// Exact comparison tally for an unsampled decision, taken from the
  /// shuffle network's unconditional pending-comparison counter (same
  /// definition as on_comparison's call condition, so the exact total is
  /// identical at every sample rate).  Scheduling thread only.
  void add_comparisons(std::uint64_t n) noexcept;

  /// Lost-tiebreak context for an unsampled decision, set before its
  /// violations: bit s set means stream s contended (was pending) and was
  /// not granted this cycle.  on_violation falls back to this mask when
  /// no per-comparison loss was observed, so the lost_tiebreak burn cause
  /// stays exact at every sample rate; the per-rule detail (burn_rule)
  /// covers only decisions where the comparison callback ran.  Cleared at
  /// end_decision.  Scheduling thread only.
  void note_cycle_losers(std::uint64_t mask) noexcept {
    cycle_losers_ = mask;
  }

  /// A window violation committed for `stream` in the current decision:
  /// classify it against the cycle context and bump the burn counters.
  void on_violation(std::uint32_t stream) noexcept;

  /// Decision boundary: commits the cycle's comparison tally into the
  /// exact totals (and mirrored registry counter) and clears the
  /// per-cycle loss/fault context.  Called by AuditSession::on_decision /
  /// on_decision_lite after the decision's violations were reported.
  void end_decision() noexcept;

  /// Context hooks (any thread).
  void note_fault() noexcept;
  void note_overflow(std::uint32_t stream) noexcept;

  /// Mirror the global rule counters into `reg` as audit.rule.<name>
  /// (plus audit.comparisons, audit.violations and the exact
  /// audit.burn.<cause> counters the watchdog's burn-spike rule reads)
  /// so they ride in the metrics snapshot.  Idempotent; call at attach
  /// time.
  void bind_registry(MetricsRegistry& reg);

  // -- accessors (safe from any thread) ------------------------------------
  /// Exact total comparisons, committed at decision boundaries.
  [[nodiscard]] std::uint64_t comparisons() const noexcept;
  /// Comparisons that ran with the full (sampled) profile path.
  [[nodiscard]] std::uint64_t comparisons_sampled() const noexcept;
  [[nodiscard]] std::uint64_t rule_total(std::size_t rule) const noexcept;
  [[nodiscard]] std::uint64_t wins(std::uint32_t stream,
                                   std::size_t rule) const noexcept;
  [[nodiscard]] std::uint64_t losses(std::uint32_t stream,
                                     std::size_t rule) const noexcept;
  [[nodiscard]] std::uint64_t violations(std::uint32_t stream) const noexcept;
  [[nodiscard]] std::uint64_t burn(std::uint32_t stream,
                                   std::size_t cause) const noexcept;
  /// Lost-tiebreak violations broken down by the rule that was lost.
  [[nodiscard]] std::uint64_t burn_rule(std::uint32_t stream,
                                        std::size_t rule) const noexcept;

  /// Rule firings inside the current (uncommitted) decision; scheduling
  /// thread only.
  void cycle_rules(std::array<std::uint16_t, kAuditRules>& out) const noexcept;

 private:
  /// Sampled-cycle slow path: the full per-rule / per-stream profile
  /// atomics.  Out-of-line so the inline fast path stays small.
  void on_comparison_sampled(std::uint32_t winner, std::uint32_t loser,
                             std::uint8_t rule) noexcept;

  struct PerStream {
    std::array<std::atomic<std::uint64_t>, kAuditRules> wins{};
    std::array<std::atomic<std::uint64_t>, kAuditRules> losses{};
    std::array<std::atomic<std::uint64_t>, kBurnCauses> burn{};
    std::array<std::atomic<std::uint64_t>, kAuditRules> burn_rule{};
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint32_t> overflow_pending{0};
  };

  std::uint32_t streams_;
  std::array<PerStream, kAuditMaxStreams> per_stream_{};
  std::array<std::atomic<std::uint64_t>, kAuditRules> rule_total_{};
  std::atomic<std::uint64_t> comparisons_{0};
  std::atomic<std::uint64_t> comparisons_sampled_{0};
  std::atomic<std::uint32_t> cycle_faults_{0};

  // Scheduling-thread-only cycle context.
  static constexpr std::uint8_t kNoLoss = 0xff;
  bool cycle_sampled_ = true;
  std::uint32_t cycle_comparisons_ = 0;
  std::uint64_t cycle_losers_ = 0;
  std::array<std::uint16_t, kAuditRules> cycle_rules_{};
  std::array<std::uint8_t, kAuditMaxStreams> cycle_lost_rule_{};

  // Optional mirrored registry counters (audit.*).
  /// audit.rule.<rule>: comparisons resolved by the rule (sampled)
  std::array<Counter*, kAuditRules> rule_counters_{};
  /// audit.burn.<cause>: violations attributed to the cause (exact)
  std::array<Counter*, kBurnCauses> burn_counters_{};
  /// audit.comparisons: comparator resolutions observed (exact)
  Counter* comparison_counter_ = nullptr;
  /// audit.violations: window-constraint violations observed (exact)
  Counter* violation_counter_ = nullptr;
};

/// The black box: provenance profile + flight recorder + dump policy.
/// Attach one to a chip (and guard / fault plan / endsystem) and every
/// committed decision flows through on_decision().
class AuditSession {
 public:
  /// Fault sites mirrored from hw::FaultSite groups for the dump.
  enum class FaultSite : std::uint8_t { kPci = 0, kSram = 1, kChip = 2 };

  explicit AuditSession(std::uint32_t streams,
                        std::size_t ring_capacity =
                            FlightRecorder::kDefaultCapacity);

  [[nodiscard]] DecisionAudit& audit() noexcept { return audit_; }
  [[nodiscard]] const DecisionAudit& audit() const noexcept { return audit_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const noexcept {
    return recorder_;
  }

  /// Per-N decision sampling (default: every decision fully audited).
  /// Scheduling thread / before the run; seed picks the grid phase.
  void set_sampling(std::uint32_t every, std::uint64_t seed = 0) noexcept {
    sampler_.configure(every, seed);
  }
  [[nodiscard]] const DecisionSampler& sampler() const noexcept {
    return sampler_;
  }

  /// Arm the always-sample override for the next decision (violation /
  /// fault / failover / watchdog).  Any thread.
  void force_sample() noexcept { sampler_.force_next(); }

  /// Chip hook, scheduling thread, once per committed (non-idle)
  /// decision, before the SCHEDULE passes: ticks the sampler, gates the
  /// comparison hot path, and tells the chip whether to build the full
  /// DecisionRecord (true) or take the on_decision_lite path (false).
  [[nodiscard]] bool begin_decision() noexcept {
    const bool sampled = sampler_.tick();
    audit_.begin_cycle(sampled);
    return sampled;
  }

  /// Robust-layer context (any thread).
  void set_health(std::uint8_t state) noexcept;
  void note_fault(FaultSite site) noexcept;
  [[nodiscard]] std::uint64_t faults_total() const noexcept;
  [[nodiscard]] std::uint64_t faults(FaultSite site) const noexcept;

  /// Clear the per-cycle context a previous run may have left behind (a
  /// fault noted for a decision that never ran) while the profile
  /// accumulates across runs.
  void begin_run() noexcept;

  /// Chip hook, from the miss sweep that commits it: `stream` violated
  /// its window constraint in the current decision.  Classifies it
  /// against the cycle context and arms the force-sample override, so the
  /// next decision lands in the flight recorder with full provenance.
  /// Streams past streams() are ignored.  Scheduling thread only.
  void on_violation(std::uint32_t stream) noexcept;

  /// Chip hook (sampled path): `rec` arrives with identity/grants/stream
  /// snapshots filled; the session stamps rule counts, health and fault
  /// context, records the ring entry, and closes the decision.
  /// Scheduling thread only.
  void on_decision(DecisionRecord& rec);

  /// Chip hook (unsampled path): no record is built.  `comparisons` is
  /// the decision's pending-comparison count from the network's
  /// unconditional tally, which keeps the comparison total exact; then
  /// the decision closes.  Scheduling thread only.
  void on_decision_lite(std::uint64_t comparisons);

  /// Watchdog context: a JSON object describing the firing rule and its
  /// window stats, spliced into the next dump under "watchdog".
  void set_watchdog_context(std::string json_object);

  /// The run document's single-line `audit` section (docs/formats.md).
  [[nodiscard]] std::string to_json() const;

  /// One black-box capture: why it was taken and the section as it stood.
  struct Dump {
    std::string cause;
    std::string section;  ///< to_json() at the anomaly
  };
  /// Receives every dump as it happens (the run-document writer), under
  /// the session's lock, so concurrent anomalies reach it one at a time
  /// and the last one written is last_dump(); it must not call back into
  /// the session.
  using DumpSink = std::function<void(const Dump&)>;
  void set_dump_sink(DumpSink sink);

  /// Freeze the section under `cause` (failover, watchdog firing,
  /// divergence), keep it as last_dump() and hand it to the sink.
  void dump(const std::string& cause);

  /// The latest dump; nullopt when no anomaly happened.
  [[nodiscard]] std::optional<Dump> last_dump() const;

 private:
  DecisionAudit audit_;
  FlightRecorder recorder_;
  DecisionSampler sampler_;
  std::atomic<std::uint8_t> health_{0};
  std::array<std::atomic<std::uint64_t>, 3> faults_{};
  mutable std::mutex mu_;  ///< guards the watchdog context, the sink and
                           ///< the last dump
  std::string watchdog_context_;
  DumpSink sink_;
  std::optional<Dump> last_dump_;
};

}  // namespace ss::telemetry
