// report.hpp — one-page run reports.
//
// A run's observability planes land as the sections of one `ss-run-v1`
// run document, and reading one run from raw JSON means eyeballing four
// long sections.  `build_report` renders whichever sections the document
// carries as one text page: counter-rate sparklines with cumulative
// totals over the sampled intervals, latency percentiles, SLO burn causes
// and their total, profiler flame shares and self time, and watchdog
// firings with their window context.
//
// It lives in the telemetry library (not the CLI) so tests drive it
// without process spawns; `ss_cli report` is a thin argument shim.
#pragma once

#include <string>

namespace ss::telemetry {

struct Report {
  bool loaded = false;  ///< the file parsed as an ss-run-v1 document
  std::string text;     ///< the rendered page
};

/// Render the run document at `path`.  A missing file, a parse error or
/// another schema leave `loaded` false.
Report build_report(const std::string& path);

}  // namespace ss::telemetry
