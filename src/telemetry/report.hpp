// report.hpp — one-page run reports.
//
// The observability planes each export one document (ss-metrics-v1,
// ss-audit-v2, ss-profile-v1, ss-timeseries-v1) and understanding one
// run means eyeballing four JSON lines.  `build_report` renders whichever
// of the four exist as one text page: counter-rate sparklines with
// cumulative totals over the sampled intervals, latency percentiles, SLO
// burn causes and their total, profiler flame shares and self time, and
// watchdog firings with their window context.
//
// It lives in the telemetry library (not the CLI) so tests drive it
// without process spawns; `ss_cli report` is a thin argument shim.
#pragma once

#include <string>

namespace ss::telemetry {

/// Paths to the per-run export documents; any may be empty (skipped) or
/// point at a missing/invalid file (noted in the report, not fatal).
struct ReportInputs {
  std::string metrics_path;     ///< ss-metrics-v1
  std::string audit_path;       ///< ss-audit-v2
  std::string profile_path;     ///< ss-profile-v1
  std::string timeseries_path;  ///< ss-timeseries-v1
};

struct Report {
  bool any_input = false;  ///< at least one document loaded
  std::string text;        ///< the rendered page
};

Report build_report(const ReportInputs& in);

}  // namespace ss::telemetry
