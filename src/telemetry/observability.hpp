// observability.hpp — the one observability front of the command-line
// tools.
//
// Every plane the pipeline can carry — the metrics registry, the frame-
// lifecycle trace, the stage profiler, the decision-audit session, the
// interval time series and the anomaly watchdog — is switched on by the
// same four flags, and each run ends in one `ss-run-v1` run document
// (docs/formats.md) with one section per attached plane.
// ObservabilityOptions is the only parser (and usage text) for those
// flags; Observability owns the planes, hands out the attach pointers
// (null when a plane is off), drives interval sampling, and writes the
// run document.  A run that was not asked to observe anything attaches
// nothing and pays one null test per instrumentation site.
//
// A watchdog or fault-plane run always leaves a run document (ss_run.json
// when --out was not given), and an anomaly puts its audit section on
// disk at the seam, so the black box is never lost to a forgotten flag.
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
  std::string out;        ///< --out: the ss-run-v1 run document
  std::string trace_out;  ///< --trace-out: Chrome trace-event JSON
  std::uint32_t sample_every = 64;  ///< --sample-every: 1-in-N (<= 1: all)
  bool watchdog = false;            ///< --watchdog

  enum class Flag { kOther, kTaken, kBad };

  /// Consume argv[i] (and its value, advancing i) when it is one of the
  /// four flags.  kOther leaves i alone for the caller's own flags;
  /// kBad means a missing or malformed value, already reported on
  /// stderr under `prog`.
  Flag take(int argc, char** argv, int& i, const char* prog);

  /// The flags' usage lines, each indented by `indent` spaces.
  [[nodiscard]] static std::string usage(int indent);
};

class Observability {
 public:
  /// `streams` sizes the audit session.  --out attaches every plane the
  /// program can feed: the registry, the audit, the time series and, when
  /// `profiled` (the program runs the pipeline stages the profiler
  /// times), the profiler.  --watchdog attaches the registry, the time
  /// series and the audit; `fault_plane` (a run with injected faults)
  /// the audit.
  Observability(ObservabilityOptions opts, std::uint32_t streams,
                bool profiled, bool fault_plane = false);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// Attach pointers, null when the plane is off.
  [[nodiscard]] MetricsRegistry* metrics() noexcept;
  [[nodiscard]] FrameTrace* frame_trace() noexcept;
  [[nodiscard]] Profiler* profiler() noexcept;
  [[nodiscard]] AuditSession* audit() noexcept;

  /// The registry and its interval sampler, for callers that sample by
  /// hand (fuzz_ss: one interval per scenario).
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] TimeSeries& timeseries() noexcept { return timeseries_; }

  /// Start the interval sampler when the time series is attached.  Call
  /// right before the run.
  void start();

  /// Stop sampling (the closing-window sample), write the Chrome trace
  /// and the run document, and print one line for each.  The document's
  /// audit section is the one the last anomaly froze, else a fresh one
  /// with cause "on_demand".  False when a file could not be written
  /// (reported on stderr under `prog`).
  bool finish(const char* prog);

 private:
  ObservabilityOptions opts_;
  bool registry_on_;  ///< the registry and time-series planes
  MetricsRegistry registry_;
  TimeSeries timeseries_{registry_};
  std::optional<FrameTrace> frame_trace_;
  std::optional<Profiler> profiler_;
  std::optional<AuditSession> audit_;
  std::optional<Watchdog> watchdog_;  ///< after timeseries_: detaches first
};

}  // namespace ss::telemetry
