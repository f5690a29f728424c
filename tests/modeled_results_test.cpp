// modeled_results_test.cpp — the committed results/ CSVs reproduce.
//
// Every bench/ program whose CSV holds only modeled quantities (cycle
// counts, packet-times, modeled bus time; no host clock) runs here as a
// subprocess in a fresh temporary directory, and the results/<name>.csv
// it writes there must equal the committed copy byte for byte.  So a
// change that was meant to alter no behaviour cannot move a figure
// unnoticed.  sec52_throughput.csv reports host-measured rates and is
// the one committed CSV left out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

#if !defined(BENCH_DIR) || !defined(RESULTS_DIR)
#error "BENCH_DIR and RESULTS_DIR must be set"
#endif

struct Artifact {
  const char* program;  ///< bench/ target
  const char* csv;      ///< file it writes under results/
};

constexpr Artifact kModeled[] = {
    {"ablation_fabric", "ablation_fabric.csv"},
    {"ablation_hwpq", "ablation_hwpq.csv"},
    {"ablation_sortnet", "ablation_sortnet.csv"},
    {"ablation_streaming", "ablation_streaming.csv"},
    {"ext_block_reuse", "ext_block_reuse.csv"},
    {"ext_future_work", "ext_future_work.csv"},
    {"fig10_aggregation", "fig10_streamlets.csv"},
    {"fig1a_framework", "fig1a_framework.csv"},
    {"fig1b_complexity", "fig1b_complexity.csv"},
    {"fig7_area_clock", "fig7_area_clock.csv"},
    {"fig8_fair_bandwidth", "fig8_bandwidth.csv"},
    {"fig9_queuing_delay", "fig9_delay.csv"},
    {"table3_block_vs_maxfind", "table3.csv"},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// 1-based number of the first line where `a` and `b` differ; 0 if equal.
std::size_t first_diff_line(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  std::size_t line = 1;
  for (std::size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i];
       ++i) {
    if (a[i] == '\n') ++line;
  }
  return line;
}

TEST(ModeledResults, EveryModeledCsvMatchesTheCommittedCopy) {
  for (const Artifact& art : kModeled) {
    std::string tmpl = ::testing::TempDir() + "modeled_results_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    const std::string dir = tmpl;
    const std::string cmd = "cd '" + dir + "' && '" + BENCH_DIR + "/" +
                            art.program + "' >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(rc != -1 && WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
        << art.program << " failed";
    const std::string got = read_file(dir + "/results/" + art.csv);
    const std::string want =
        read_file(std::string(RESULTS_DIR) + "/" + art.csv);
    EXPECT_FALSE(want.empty()) << "results/" << art.csv << " is missing";
    EXPECT_EQ(first_diff_line(got, want), 0u)
        << art.program << " wrote a results/" << art.csv
        << " that differs from the committed copy at that line";
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
