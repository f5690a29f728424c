// bench_common.hpp — shared plumbing for the figure/table benches.
//
// Every bench prints (a) a banner naming the paper artifact it reproduces,
// (b) the regenerated rows/series as text and ASCII charts, (c) the
// paper's reference values where the text states them, and writes the raw
// series as CSV under ./results/ for external re-plotting.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include <sys/resource.h>

namespace ss::bench {

/// Wall-clock seconds since `t0` — benches stamp their artifact headers
/// with total run duration so a reader can see how much machine time a
/// committed artifact represents.
inline double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size of this process in kilobytes (ru_maxrss is KB
/// on Linux); 0 when the platform query fails.
inline std::uint64_t peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss > 0 ? static_cast<std::uint64_t>(ru.ru_maxrss) : 0;
}

/// The shared `"env"` header object for BENCH_*.json artifacts: how long
/// the sweep ran and how much memory it peaked at.  Optional for readers
/// (older committed artifacts lack it).
inline std::string env_json(double duration_s) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"duration_s\": %.3f, \"peak_rss_kb\": %llu}", duration_s,
                static_cast<unsigned long long>(peak_rss_kb()));
  return buf;
}

inline std::string results_dir() {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  return "results/";
}

inline void banner(const char* artifact, const char* title) {
  std::printf("\n");
  std::printf("=====================================================================\n");
  std::printf("  ShareStreams reproduction — %s\n", artifact);
  std::printf("  %s\n", title);
  std::printf("=====================================================================\n");
}

inline void section(const char* name) {
  std::printf("\n--- %s ---\n", name);
}

}  // namespace ss::bench
