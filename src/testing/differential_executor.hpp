// differential_executor.hpp — lock-step execution of every scheduler
// implementation over one event stream.
//
// The repository's central correctness claim is that the cycle-level
// hw::SchedulerChip and the independently written dwcs::ReferenceScheduler
// agree decision-for-decision.  The executor turns that claim into a
// machine-checkable predicate over arbitrary scenarios: it drives both
// through the same admission/arrival/decide/reconfig events and diffs
// idle flags, grant sequences (slot, emission vtime, deadline verdict),
// circulated IDs, drop sets, per-stream counters, backlogs and virtual
// time, and it checks that no decision grants a slot twice.  A
// batch-drained block decision (fabric.batch_depth = K) is compared
// grant-by-grant with per-grant emission vtimes, i.e. exactly as K
// sequential winner grants — the digest of a batched decision stream is
// therefore directly comparable to the same stream granted one winner per
// pass.  In fair-queuing WR scenarios it additionally drives all four
// related-work hardware priority queues (hwpq::*) through the same tagged
// stream — with unique keys every structure realizes the same total order,
// so their pop sequence must match the fabric's grant sequence (until a
// reconfig event leaves their contents stale).  When the scenario carries
// an aggregation plan, host-side streamlet picks are fed from the grant
// stream and the round-robin/weighted-share invariants are checked at the
// end.
//
// The executor is deterministic and side-effect free: the same scenario
// always produces the same RunResult (including the FNV-1a digest of the
// chip's decision stream), which is what the shrinker binary-searches over
// and what replay files assert against.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "robust/recovery.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "testing/scenario.hpp"

namespace ss::testing {

struct RunResult {
  bool diverged = false;
  /// Index into Scenario::events of the event at which the divergence was
  /// detected (== events.size() for end-of-run counter mismatches).
  std::size_t event_index = 0;
  std::uint64_t decision_cycle = 0;  ///< decisions completed at detection
  std::string detail;                ///< human-readable first difference

  // Coverage accounting.
  std::uint64_t decisions = 0;  ///< differential decision cycles compared
  std::uint64_t grants = 0;     ///< frames granted by the chip
  std::uint64_t drops = 0;      ///< late heads dropped by the chip
  std::uint64_t arrivals = 0;   ///< requests fed to both implementations
  bool hwpq_checked = false;    ///< hwpq variants participated in the diff

  // Rank-layer differential (scenarios with rank.enabled): the scenario's
  // event stream replayed through a rank-expressed discipline on a PIFO
  // substrate against its bespoke sched/ counterpart.  Exact backends
  // require packet-for-packet identity; SP-PIFO requires conservation and
  // reports its inverted pops here.
  bool rank_checked = false;
  std::uint64_t rank_served = 0;      ///< packets served by the rank form
  std::uint64_t rank_inversions = 0;  ///< inverted pops (0 on exact)

  // Fault-plane outcome (all zero/false when the scenario's fault plane is
  // disabled).  Faults must not change the schedule: a faulted run's
  // digest equals the fault-free digest of the same scenario.
  std::uint64_t faults_injected = 0;  ///< transactions failed by the plan
  robust::RecoveryStats robust{};     ///< retries/recoveries/exhaustions
  bool failed_over = false;           ///< run finished on the software path

  /// FNV-1a fingerprint of the chip's decision stream and final counters
  /// (up to the divergence point, when one occurs).
  std::uint64_t digest = 0;

  /// Window violations the chip's Register Base blocks counted, per slot,
  /// summed across the re-LOADs that restart a slot's counters: what an
  /// attached audit session must have heard.
  std::array<std::uint64_t, hw::kMaxSlots> chip_violations{};

  /// Diagnosis context, populated only when the run diverged: the chip
  /// tracer's last rendered decision cycles (the "waveform" leading up to
  /// the failure) and a single-line JSON snapshot of the run's metrics.
  std::string chip_trace_tail;
  std::string metrics_json;

  /// Chrome trace-event JSON of the retained decision-cycle window (only
  /// when Options::export_chrome_trace; empty otherwise).
  std::string chip_trace_chrome_json;
};

class DifferentialExecutor {
 public:
  struct Options {
    /// Retain the chip tracer's most recent decision cycles so divergence
    /// reports carry the waveform leading up to the failure.
    std::size_t trace_depth = 8;
    /// Also render the retained window as Chrome trace-event JSON into
    /// RunResult::chip_trace_chrome_json (drivers raise trace_depth when
    /// exporting for Perfetto).
    bool export_chrome_trace = false;
    /// Accumulate chip metrics for the run into this registry when set
    /// (fuzz/replay drivers pass one to get a metrics snapshot attached to
    /// divergence reports and the run document).
    telemetry::MetricsRegistry* metrics = nullptr;
    /// Decision-audit session: rule provenance + the flight-recorder ring
    /// for the run.  The executor calls begin_run() (the profile
    /// accumulates across scenarios; the per-cycle context restarts) and
    /// dumps the session with cause "divergence" when the diff fails.
    /// Must be sized for the largest scenario when reused across
    /// scenarios.
    telemetry::AuditSession* audit = nullptr;
  };

  DifferentialExecutor() = default;
  explicit DifferentialExecutor(Options opt) : opt_(opt) {}

  /// Run the scenario to completion or first divergence.
  [[nodiscard]] RunResult run(const Scenario& sc) const;

 private:
  Options opt_{};
};

}  // namespace ss::testing
