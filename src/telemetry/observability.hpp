// observability.hpp — the one observability front of the command-line
// tools.
//
// Every plane the pipeline can carry — the metrics registry, the frame-
// lifecycle trace, the stage profiler, the decision-audit session, the
// interval time series and the anomaly watchdog — is switched on by the
// same seven flags, and each run ends by writing the same exports.
// ObservabilityOptions is the only parser (and usage text) for those
// flags; Observability owns the planes, hands out the attach pointers
// (null when a plane was not asked for), drives interval sampling, and
// at exit writes every requested export through one error path.  A run
// that was not asked to observe anything attaches nothing and pays one
// null test per instrumentation site.
//
// A watchdog or fault-plane run always leaves an audit dump
// (ss_audit_dump.json when --audit-out was not given), so an anomaly is
// never lost to a forgotten flag.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "telemetry/audit.hpp"
#include "telemetry/frame_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"

namespace ss::telemetry {

/// Strict unsigned decimal: digits only, no sign, no trailing text, no
/// overflow.  The CLIs parse every numeric flag with it, so "abc" is an
/// error rather than a silent 0.
[[nodiscard]] bool parse_count(const char* text, std::uint64_t& out);

struct ObservabilityOptions {
  std::string metrics_json;    ///< --metrics-json: ss-metrics-v1 snapshot
  std::string trace_out;       ///< --trace-out: Chrome trace-event JSON
  std::string audit_out;       ///< --audit-out: ss-audit-v2 dump
  std::string profile_out;     ///< --profile-out: ss-profile-v1
  std::string timeseries_out;  ///< --timeseries-out: ss-timeseries-v1
  std::uint32_t sample_every = 64;  ///< --sample-every: 1-in-N (<= 1: all)
  bool watchdog = false;            ///< --watchdog

  enum class Flag { kOther, kTaken, kBad };

  /// Consume argv[i] (and its value, advancing i) when it is one of the
  /// seven flags.  kOther leaves i alone for the caller's own flags;
  /// kBad means a missing or malformed value, already reported on
  /// stderr under `prog`.
  Flag take(int argc, char** argv, int& i, const char* prog);

  /// The flags' usage lines, each indented by `indent` spaces.
  [[nodiscard]] static std::string usage(int indent);
};

class Observability {
 public:
  /// `streams` sizes the audit session.  `fault_plane` marks a run with
  /// injected faults, which (like --watchdog) always dumps the audit.
  Observability(ObservabilityOptions opts, std::uint32_t streams,
                bool fault_plane = false);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Attach pointers, null when the plane was not asked for.  The
  /// registry backs --metrics-json, --timeseries-out and --watchdog.
  [[nodiscard]] MetricsRegistry* metrics() noexcept;
  [[nodiscard]] FrameTrace* frame_trace() noexcept;
  [[nodiscard]] Profiler* profiler() noexcept;
  [[nodiscard]] AuditSession* audit() noexcept;

  /// The registry and its interval sampler, for callers that sample by
  /// hand (fuzz_ss: one interval per scenario).
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] TimeSeries& timeseries() noexcept { return timeseries_; }

  /// Start the interval sampler when --timeseries-out or --watchdog asked
  /// for it.  Call right before the run.
  void start();

  /// Stop sampling (the closing-window sample), then write every
  /// requested export and, when no anomaly dumped it already, the
  /// on-demand audit dump.  Prints one line per export.  False when any
  /// file could not be written (reported on stderr under `prog`).
  bool finish(const char* prog);

 private:
  ObservabilityOptions opts_;
  MetricsRegistry registry_;
  TimeSeries timeseries_{registry_};
  std::optional<FrameTrace> frame_trace_;
  std::optional<Profiler> profiler_;
  std::optional<AuditSession> audit_;
  std::optional<Watchdog> watchdog_;  ///< after timeseries_: detaches first
  bool sampling_ = false;  ///< start() launched the interval sampler
};

}  // namespace ss::telemetry
