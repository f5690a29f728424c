// replay_exit_code_test.cpp — the fuzz_ss process exit-code contract.
//
// CI scripts and replay tooling branch on fuzz_ss's exit status, so the
// codes are API: 0 = clean, 1 = divergence, 2 = usage/IO error, 3 =
// replay ran clean but the trace's expect_digest no longer matches (the
// capture is stale — semantics drifted since it was recorded).  This
// suite runs the real binary (path injected by CMake) end to end: capture
// a trace, replay it, corrupt its digest record, replay a missing file,
// and replay a minimized divergence reproducer, asserting each code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

#ifndef FUZZ_SS_BINARY
#error "FUZZ_SS_BINARY must point at the fuzz_ss executable"
#endif

/// Run `cmd` under the shell from inside `dir`; returns the exit status.
int run_in(const std::string& dir, const std::string& cmd) {
  const std::string full = "cd '" + dir + "' && " + cmd + " >/dev/null 2>&1";
  const int rc = std::system(full.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string scratch_dir() {
  std::string tmpl = ::testing::TempDir() + "replay_exit_XXXXXX";
  char* got = mkdtemp(tmpl.data());
  return got ? std::string(got) : std::string(".");
}

TEST(BlockBatchReplayExitCodes, CleanStaleIoErrorAndDivergence) {
  const std::string bin = FUZZ_SS_BINARY;
  const std::string dir = scratch_dir();

  // Capture: a short batched campaign writes cap.sst with expect_digest
  // records, exiting 0 (no divergence).
  ASSERT_EQ(run_in(dir, bin +
                        " --seed 11 --scenarios 4 --events 200"
                        " --explore-batch --capture cap.sst"),
            0);

  // Clean replay of the first captured scenario: 0.
  ASSERT_EQ(run_in(dir, bin + " --replay cap.sst"), 0);

  // Corrupt the expect_digest record: the replay still runs divergence-
  // free, but the digest no longer matches the capture -> 3, not 2.
  {
    std::ifstream in(dir + "/cap.sst");
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    const auto pos = text.find("expect_digest ");
    ASSERT_NE(pos, std::string::npos);
    // Flip the first digit of the recorded digest to a different digit.
    const auto digit = pos + std::string("expect_digest ").size();
    text[digit] = text[digit] == '1' ? '2' : '1';
    std::ofstream out(dir + "/stale.sst", std::ios::trunc);
    out << text;
  }
  EXPECT_EQ(run_in(dir, bin + " --replay stale.sst"), 3);

  // I/O error (missing file) keeps its own code: 2.
  EXPECT_EQ(run_in(dir, bin + " --replay no_such_file.sst"), 2);

  // Unparseable trace is also an I/O-class failure: 2.
  {
    std::ofstream bad(dir + "/bad.sst", std::ios::trunc);
    bad << "not an ssfuzz trace\n";
  }
  EXPECT_EQ(run_in(dir, bin + " --replay bad.sst"), 2);

  // Injected-fault campaign manufactures a divergence (exit 1) and writes
  // a minimized reproducer; replaying the reproducer diverges again: 1.
  ASSERT_EQ(run_in(dir, bin + " --seed 11 --scenarios 8 --events 200"
                             " --inject-fault 3"),
            1);
  EXPECT_EQ(run_in(dir,
                   bin + " --replay fuzz_failure_seed11_scenario*.sst"),
            1);

  std::system(("rm -rf '" + dir + "'").c_str());
}

}  // namespace
