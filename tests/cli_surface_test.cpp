// cli_surface_test.cpp — the observability surface of the command-line
// tools, run as real processes.
//
// `ss_cli run` is the one instrumented pipeline command: this suite runs
// it with --out and --trace-out and reads each file back with the repo's
// own JSON reader, asserting the fields every section of the run document
// promises (docs/formats.md), then renders the document with `ss_cli
// report`.  It also pins the failover dump, the default run document, a
// diverging fuzz campaign's run document and the exit-2 contract for
// flags that would otherwise silently do nothing.
// Whether the watchdog fires depends on wall-clock polls, so that stays
// out of this suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "util/json.hpp"

namespace {

#if !defined(SS_CLI_BINARY) || !defined(FUZZ_SS_BINARY) || \
    !defined(QUICKSTART_BINARY)
#error "SS_CLI_BINARY, FUZZ_SS_BINARY and QUICKSTART_BINARY must be set"
#endif

using ss::util::JsonValue;

/// Run `cmd` under the shell from inside `dir` with stdout captured in
/// `dir`/stdout.txt; returns the exit status.
int run_in(const std::string& dir, const std::string& cmd) {
  const std::string full =
      "cd '" + dir + "' && " + cmd + " >stdout.txt 2>/dev/null";
  const int rc = std::system(full.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

/// As run_in, with stderr captured in `dir`/stderr.txt as well.
int run_in_keeping_stderr(const std::string& dir, const std::string& cmd) {
  const std::string full =
      "cd '" + dir + "' && " + cmd + " >stdout.txt 2>stderr.txt";
  const int rc = std::system(full.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string scratch_dir() {
  std::string tmpl = ::testing::TempDir() + "cli_surface_XXXXXX";
  char* got = mkdtemp(tmpl.data());
  return got ? std::string(got) : std::string(".");
}

JsonValue load(const std::string& path) {
  auto doc = ss::util::parse_json_file(path);
  EXPECT_TRUE(doc.has_value()) << path << " is not a JSON document";
  return doc ? *doc : JsonValue{};
}

bool has_all(const JsonValue& v, std::initializer_list<const char*> keys) {
  for (const char* k : keys) {
    if (v.find(k) == nullptr) return false;
  }
  return true;
}

std::size_t length(const JsonValue* v) {
  return v != nullptr && v->is_array() ? v->as_array().size() : 0;
}

class CliSurface : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = scratch_dir(); }
  void TearDown() override { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  std::string dir_;
};

TEST_F(CliSurface, RunWritesEveryExport) {
  ASSERT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) +
                             " run 8 4000 --watchdog --overload"
                             " --out run.json --trace-out trace.json"),
            0);
  // The watchdog reports on stdout whether or not a rule fired.
  EXPECT_NE(read_text(dir_ + "/stdout.txt").find("watchdog: "),
            std::string::npos);

  const JsonValue run = load(dir_ + "/run.json");
  EXPECT_EQ(run.str_at("schema"), "ss-run-v1");
  EXPECT_FALSE(run.str_at("cause").empty());

  // metrics: every pipeline layer counted, frames completed.
  ASSERT_NE(run.find("metrics"), nullptr);
  const JsonValue* counters = run.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* prefix : {"chip.", "qm.", "pci.", "te.", "es."}) {
    bool found = false;
    for (const auto& [name, value] : counters->as_object()) {
      found |= name.rfind(prefix, 0) == 0;
    }
    EXPECT_TRUE(found) << "no " << prefix << "* counter";
  }
  EXPECT_GT(counters->num_at("es.frames_completed"), 0.0);
  EXPECT_NE(counters->find("watchdog.polls"), nullptr);

  // Chrome trace: every event has a phase and a pid, timed events a ts,
  // and frame spans open and close.
  const JsonValue trace = load(dir_ + "/trace.json");
  EXPECT_NE(trace.find("displayTimeUnit"), nullptr);
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_GT(length(events), 0u);
  bool begins = false, ends = false;
  for (const JsonValue& e : events->as_array()) {
    ASSERT_TRUE(has_all(e, {"ph", "pid"}));
    const std::string ph = e.str_at("ph");
    if (ph != "M") {
      EXPECT_NE(e.find("ts"), nullptr);
    }
    begins |= ph == "b";
    ends |= ph == "e";
  }
  EXPECT_TRUE(begins && ends);

  // audit: provenance totals, sampling block, profiles and ring.
  ASSERT_NE(run.find("audit"), nullptr);
  const JsonValue& audit = *run.find("audit");
  EXPECT_GT(audit.num_at("decisions"), 0.0);
  EXPECT_GT(audit.num_at("comparisons"), 0.0);
  ASSERT_NE(audit.find("sampling"), nullptr);
  EXPECT_TRUE(has_all(*audit.find("sampling"),
                      {"every", "decisions", "sampled", "forced", "scale"}));
  EXPECT_EQ(audit.find("sampling")->num_at("every"), 64.0);
  ASSERT_NE(audit.find("rules"), nullptr);
  EXPECT_NE(audit.find("rules")->find("pending_only"), nullptr);
  ASSERT_NE(audit.find("rules_est"), nullptr);
  EXPECT_NE(audit.find("rules_est")->find("pending_only"), nullptr);
  ASSERT_GT(length(audit.find("stream_profiles")), 0u);
  for (const JsonValue& sp : audit.find("stream_profiles")->as_array()) {
    EXPECT_TRUE(has_all(sp, {"id", "wins", "losses", "violations", "burn"}));
  }
  ASSERT_GT(length(audit.find("ring")), 0u);
  for (const JsonValue& r : audit.find("ring")->as_array()) {
    EXPECT_TRUE(has_all(r, {"decision", "vtime", "grants", "rules",
                            "streams"}));
  }

  // profile: wall time attributed to stages.
  ASSERT_NE(run.find("profile"), nullptr);
  const JsonValue& profile = *run.find("profile");
  EXPECT_GT(profile.num_at("total_ns"), 0.0);
  EXPECT_GT(length(profile.find("stages")), 0u);

  // timeseries: every series in lockstep with the t_ns axis.
  ASSERT_NE(run.find("timeseries"), nullptr);
  const JsonValue& ts = *run.find("timeseries");
  EXPECT_EQ(ts.num_at("interval_ns"), 5e6);
  EXPECT_GE(ts.num_at("capacity"), 2.0);
  const double retained = ts.num_at("retained");
  EXPECT_GE(ts.num_at("intervals"), retained);
  EXPECT_GE(retained, 1.0);
  EXPECT_EQ(static_cast<double>(length(ts.find("t_ns"))), retained);
  const JsonValue* series = ts.find("counters");
  ASSERT_NE(series, nullptr);
  ASSERT_GT(series->as_object().size(), 0u);
  for (const auto& [name, c] : series->as_object()) {
    EXPECT_EQ(length(c.find("cum")), length(c.find("delta"))) << name;
    EXPECT_EQ(length(c.find("rate_per_s")), length(c.find("cum"))) << name;
  }
  ASSERT_NE(ts.find("histograms"), nullptr);
  for (const auto& [name, h] : ts.find("histograms")->as_object()) {
    EXPECT_EQ(length(h.find("p99")), length(h.find("count"))) << name;
  }

  // `ss_cli report` renders the document's every block: rates, latency,
  // burn (the overload guarantees violations), profiler and watchdog.
  ASSERT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) + " report run.json"), 0);
  const std::string page = read_text(dir_ + "/stdout.txt");
  for (const char* block :
       {"sections: metrics yes  audit yes  profile yes  timeseries yes",
        "\nrates (per second", "\nlatency histograms:", "\ntop burn causes",
        "\nprofiler (", "\nwatchdog: ", "\naudit: cause="}) {
    EXPECT_NE(page.find(block), std::string::npos) << block << "\n" << page;
  }
}

TEST_F(CliSurface, OnDemandAuditDumpWithoutAnomaly) {
  ASSERT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) +
                             " run 4 500 --out run.json --sample-every 16"),
            0);
  const JsonValue run = load(dir_ + "/run.json");
  EXPECT_EQ(run.str_at("cause"), "on_demand");
  ASSERT_NE(run.find("audit"), nullptr);
  ASSERT_NE(run.find("audit")->find("sampling"), nullptr);
  EXPECT_EQ(run.find("audit")->find("sampling")->num_at("every"), 16.0);
}

TEST_F(CliSurface, InjectedChipDeathDumpsWithCauseFailover) {
  ASSERT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) +
                             " run 4 1000 --inject-fault 200"
                             " --out failover.json"),
            0);
  EXPECT_NE(read_text(dir_ + "/stdout.txt")
                .find("FAILED OVER to the software scheduler"),
            std::string::npos);
  const JsonValue run = load(dir_ + "/failover.json");
  EXPECT_EQ(run.str_at("schema"), "ss-run-v1");
  EXPECT_EQ(run.str_at("cause"), "failover");
  ASSERT_NE(run.find("audit"), nullptr);
  const JsonValue& audit = *run.find("audit");
  ASSERT_NE(audit.find("faults"), nullptr);
  EXPECT_GE(audit.find("faults")->num_at("chip"), 1.0);
  EXPECT_GE(audit.find("faults")->num_at("total"), 1.0);
  EXPECT_GT(length(audit.find("ring")), 0u);
}

// Without --out, a watchdog run still leaves its run document in the cwd,
// with the sections of the planes the watchdog attached.
TEST_F(CliSurface, WatchdogWithoutOutWritesDefaultRunDocument) {
  ASSERT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) + " run 4 200 --watchdog"),
            0);
  const JsonValue run = load(dir_ + "/ss_run.json");
  EXPECT_EQ(run.str_at("schema"), "ss-run-v1");
  for (const char* section : {"metrics", "audit", "timeseries"}) {
    EXPECT_NE(run.find(section), nullptr) << section;
  }
  EXPECT_EQ(run.find("profile"), nullptr) << "no --out, no profiler";
}

// A diverging fuzz campaign's run document describes the campaign up to
// the divergence: the registry's decision count, the audit's sampled
// decisions and its flight-recorder ring all match the decisions the
// campaign printed, untouched by the shrinker's candidate runs.
TEST_F(CliSurface, FuzzDivergenceDocumentStopsAtTheDivergence) {
  ASSERT_EQ(run_in(dir_, std::string(FUZZ_SS_BINARY) +
                             " --seed 7 --scenarios 5 --events 300"
                             " --inject-fault 3 --out div.json"),
            1);
  std::istringstream out(read_text(dir_ + "/stdout.txt"));
  double printed = 0.0;
  bool shrunk = false;
  for (std::string line; std::getline(out, line);) {
    const std::size_t at = line.find(" decisions=");
    if (line.rfind("scenario ", 0) == 0 && at != std::string::npos) {
      printed += std::stod(line.substr(at + 11));
    }
    shrunk |= line.rfind("minimized ", 0) == 0;
  }
  ASSERT_TRUE(shrunk) << "the divergence must reach the shrinker";
  ASSERT_GT(printed, 0.0);

  const JsonValue run = load(dir_ + "/div.json");
  EXPECT_EQ(run.str_at("cause"), "divergence");
  ASSERT_NE(run.find("metrics"), nullptr);
  ASSERT_NE(run.find("metrics")->find("counters"), nullptr);
  EXPECT_EQ(run.find("metrics")->find("counters")->num_at(
                "chip.decision_cycles"),
            printed);
  ASSERT_NE(run.find("audit"), nullptr);
  const JsonValue& audit = *run.find("audit");
  ASSERT_NE(audit.find("sampling"), nullptr);
  EXPECT_EQ(audit.find("sampling")->num_at("decisions"), printed);
  EXPECT_EQ(static_cast<double>(length(audit.find("ring"))), printed);
}

// Flags whose value would silently do nothing are refused with exit 2.
TEST_F(CliSurface, FlagsThatWouldDoNothingExitTwo) {
  const std::string cli = std::string(SS_CLI_BINARY) + " run 4 200";
  EXPECT_EQ(run_in(dir_, cli + " --fault-seed 0"), 2);
  EXPECT_EQ(run_in(dir_, cli + " --inject-fault 0"), 2);
  EXPECT_EQ(run_in(dir_, cli + " --sample-every abc --out a.json"), 2);
  EXPECT_EQ(run_in(dir_, cli + " --out"), 2);
  EXPECT_EQ(run_in(dir_, cli + " --no-such-flag"), 2);
  EXPECT_EQ(run_in(dir_, std::string(SS_CLI_BINARY) + " run 3 200"), 2);

  const std::string fuzz = std::string(FUZZ_SS_BINARY) + " --scenarios 1";
  EXPECT_EQ(run_in(dir_, fuzz + " --fault-seed 0"), 2);
  EXPECT_EQ(run_in(dir_, fuzz + " --sample-every abc"), 2);
  EXPECT_EQ(run_in(dir_, fuzz + " --out"), 2);
  EXPECT_EQ(run_in(dir_, fuzz + " --watchdog"), 2);

  EXPECT_EQ(run_in(dir_, std::string(QUICKSTART_BINARY) + " --watchdog"), 2);
  EXPECT_EQ(run_in(dir_, std::string(QUICKSTART_BINARY)), 0);
}

// An SS_SIMD value the kernel dispatch refuses stops both CLIs like a bad
// flag: exit 2 and a message naming the accepted values, not an uncaught
// exception.
TEST_F(CliSurface, BadSimdSettingExitsTwoNamingTheAcceptedValues) {
  for (const std::string& cmd :
       {std::string(SS_CLI_BINARY) + " run 4 10",
        std::string(FUZZ_SS_BINARY) + " --seed 1 --scenarios 1 --events 10"}) {
    EXPECT_EQ(run_in_keeping_stderr(dir_, "SS_SIMD=OFF " + cmd), 2) << cmd;
    const std::string err = read_text(dir_ + "/stderr.txt");
    for (const char* token : {"AUTO", "REF", "AVX2", "AVX512"}) {
      EXPECT_NE(err.find(token), std::string::npos) << cmd << ": " << err;
    }
  }
}

}  // namespace
