// profiler_test.cpp — the SS_PROF hot-path self-profiler.
//
// Contracts under test: a ProfScope attributes its enclosing block's
// wall-time to exactly one stage (count exact, total positive), a null
// profiler costs a null test and nothing else, the scope-exit path
// decimates only the histogram observe (1-in-8) while count/total_ns stay
// exact, the run document's profile section carries the flamegraph
// nesting (shuffle passes inside the chip decision, self_ns = total -
// children), and
// bind_registry re-homes the per-stage histograms as prof.<stage>.ns.
// The ProfilerThreads suite (TSan job) exercises the documented
// concurrency contract: distinct stages may record from distinct threads.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "telemetry/metrics.hpp"
#include "telemetry/observability.hpp"
#include "telemetry/profiler.hpp"

namespace ss {
namespace {

using telemetry::MetricsRegistry;
using telemetry::Profiler;
using telemetry::ProfScope;
using telemetry::ProfStage;

TEST(ProfilerScope, AttributesElapsedTimeToItsStage) {
  Profiler p;
  {
    SS_PROF(&p, ProfStage::kChipDecision);
    // Burn a visible amount of wall time so the recorded total cannot
    // round to zero even on a coarse clock.
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(50)) {
    }
  }
  EXPECT_EQ(p.count(ProfStage::kChipDecision), 1u);
  EXPECT_GT(p.total_ns(ProfStage::kChipDecision), 0u);
  // Other stages untouched.
  EXPECT_EQ(p.count(ProfStage::kPci), 0u);
  EXPECT_EQ(p.total_ns(ProfStage::kTransmit), 0u);
}

TEST(ProfilerScope, NullProfilerIsANoop) {
  Profiler* none = nullptr;
  {
    SS_PROF(none, ProfStage::kQueueDrain);
    ProfScope direct(nullptr, ProfStage::kTransmit);
  }
  SUCCEED();
}

TEST(ProfilerScope, EveryScopeCountsExactly) {
  Profiler p;
  for (int i = 0; i < 100; ++i) {
    SS_PROF(&p, ProfStage::kTransmit);
  }
  EXPECT_EQ(p.count(ProfStage::kTransmit), 100u);
}

TEST(ProfilerRecord, NsApiKeepsExactTotals) {
  Profiler p;
  for (int i = 0; i < 4; ++i) p.record(ProfStage::kPci, 1500);
  EXPECT_EQ(p.count(ProfStage::kPci), 4u);
  EXPECT_EQ(p.total_ns(ProfStage::kPci), 6000u);
}

// The scope-exit path: count and total advance on every call, the
// histogram observe runs 1-in-8 (the first call included) — quantiles are
// estimates from every 8th scope, totals are not sampled.
TEST(ProfilerTicks, DecimatesHistogramObserveKeepsTotalsExact) {
  Profiler p;
  MetricsRegistry reg;
  p.bind_registry(reg);
  p.record_ticks(ProfStage::kTransmit, 1000);
  const std::uint64_t per = p.total_ns(ProfStage::kTransmit);
  EXPECT_GT(per, 0u);
  for (int i = 0; i < 15; ++i) p.record_ticks(ProfStage::kTransmit, 1000);
  EXPECT_EQ(p.count(ProfStage::kTransmit), 16u);
  EXPECT_EQ(p.total_ns(ProfStage::kTransmit), 16 * per)
      << "equal tick deltas must accumulate exactly";

  bool found = false;
  for (const telemetry::Sample& s : reg.snapshot().samples) {
    if (s.name == "prof.transmit.ns") {
      found = true;
      EXPECT_EQ(s.count, 2u) << "16 scope exits -> observes at n=0 and n=8";
    }
  }
  EXPECT_TRUE(found) << "bound histogram missing from the snapshot";
}

TEST(ProfilerJson, SchemaNestingAndSelfTime) {
  Profiler p;
  p.record(ProfStage::kChipDecision, 10000);
  p.record(ProfStage::kShufflePasses, 4000);
  p.record(ProfStage::kPci, 2000);
  const std::string doc = p.to_json();

  EXPECT_EQ(doc.rfind("{\"clock\":", 0), 0u)
      << "the section opens with the clock; the schema is the run document's";
  EXPECT_NE(doc.find(std::string("\"clock\":\"") + Profiler::clock_name() +
                     "\""),
            std::string::npos);
  // Root total excludes nested children: chip (10000) + pci (2000).
  EXPECT_NE(doc.find("\"total_ns\":12000"), std::string::npos);
  // Shuffle passes nest inside the chip decision.
  EXPECT_NE(doc.find("\"name\":\"shuffle_passes\",\"parent\":"
                     "\"chip_decision\""),
            std::string::npos);
  // Chip self-time = 10000 total - 4000 shuffle child.
  EXPECT_NE(doc.find("\"self_ns\":6000"), std::string::npos);
  // Chip share of the root total: 10000/12000 -> 83.3333 (%.6g).
  EXPECT_NE(doc.find("\"share_pct\":83.3333"), std::string::npos);
  EXPECT_EQ(doc.find('\n'), std::string::npos) << "export is one line";
}

TEST(ProfilerJson, EmptyProfilerExportsZeroTotals) {
  const Profiler p;
  const std::string doc = p.to_json();
  EXPECT_NE(doc.find("\"total_ns\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"reload_commit\""), std::string::npos)
      << "every stage appears even when unvisited";
}

// The profile reaches disk as the run document's profile section, on one
// line ending in a newline.
TEST(ProfilerJson, WritesFileWithTrailingNewline) {
  const std::string path = ::testing::TempDir() + "profile_run.json";
  std::remove(path.c_str());
  telemetry::ObservabilityOptions opts;
  opts.out = path;
  telemetry::Observability obs(opts, 4, /*profiled=*/true);
  ASSERT_NE(obs.profiler(), nullptr);
  obs.profiler()->record(ProfStage::kQueueDrain, 777);
  ASSERT_TRUE(obs.finish("profiler_test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "one line, newline-ended";
  EXPECT_NE(text.find("\"schema\":\"ss-run-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"profile\":{\"clock\":"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"queue_drain\",\"parent\":\"\","
                      "\"count\":1,\"total_ns\":777"),
            std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(ProfilerRegistry, BindsEveryStageUnderProfNamespace) {
  Profiler p;
  MetricsRegistry reg;
  p.bind_registry(reg);
  const telemetry::Snapshot snap = reg.snapshot();
  for (std::size_t s = 0; s < telemetry::kProfStages; ++s) {
    const std::string want =
        std::string("prof.") + telemetry::prof_stage_name(s) + ".ns";
    bool found = false;
    for (const telemetry::Sample& smp : snap.samples) {
      if (smp.name == want) found = true;
    }
    EXPECT_TRUE(found) << want << " missing from the snapshot";
  }
}

// The documented concurrency contract: each stage has a single writer, but
// distinct stages may record from distinct threads concurrently while a
// monitor thread exports.  (TSan job.)
TEST(ProfilerThreads, DistinctStagesRecordConcurrently) {
  Profiler p;
  constexpr int kEach = 20000;
  std::thread drain([&p] {
    for (int i = 0; i < kEach; ++i) {
      p.record_ticks(ProfStage::kQueueDrain, 100);
    }
  });
  std::thread tx([&p] {
    for (int i = 0; i < kEach; ++i) {
      p.record_ticks(ProfStage::kTransmit, 100);
    }
  });
  std::string last;
  for (int i = 0; i < 50; ++i) last = p.to_json();
  drain.join();
  tx.join();
  EXPECT_EQ(p.count(ProfStage::kQueueDrain), static_cast<std::uint64_t>(kEach));
  EXPECT_EQ(p.count(ProfStage::kTransmit), static_cast<std::uint64_t>(kEach));
  EXPECT_NE(p.to_json().find("\"stages\":["), std::string::npos);
}

}  // namespace
}  // namespace ss
