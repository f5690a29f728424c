// watchdog_test.cpp — the anomaly watchdog's rolling-window rules and the
// flight-recorder dump they trigger.
//
// Every rule is driven deterministically through a manually fed
// MetricsRegistry and evaluate_once(): the registry carries exactly the
// counters/histograms the rule reads, the test advances them across polls,
// and the returned rule name plus the audit dump's "watchdog" context
// pin the contract: which rule, on what value, against what
// threshold, over how many polls.  A rolling-window test checks that slow
// growth spread across evictions never accumulates into a spike, and the
// WatchdogThread suite (TSan job) exercises start()/stop() plus a firing
// observed from the monitor thread.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/watchdog.hpp"

namespace ss {
namespace {

using telemetry::AuditSession;
using telemetry::MetricsRegistry;
using telemetry::Watchdog;
using telemetry::WatchdogConfig;


TEST(WatchdogRules, QuietRegistryNeverFires) {
  MetricsRegistry reg;
  Watchdog wd(reg, nullptr);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(wd.evaluate_once().has_value()) << "poll " << i;
  }
  EXPECT_EQ(wd.polls(), 6u);
  EXPECT_EQ(wd.fired(), 0u);
  EXPECT_EQ(wd.last_rule(), "");
  // The watchdog's own counters ride in the registry it polls.
  EXPECT_EQ(reg.counter("watchdog.polls").value(), 6u);
  EXPECT_EQ(reg.counter("watchdog.fired").value(), 0u);
}

TEST(WatchdogRules, BurnRateSpikeFiresOnWindowGrowth) {
  MetricsRegistry reg;
  telemetry::Counter& burn = reg.counter("audit.burn.lost_tiebreak");
  Watchdog wd(reg, nullptr);
  EXPECT_FALSE(wd.evaluate_once().has_value()) << "one poll is no window";
  burn.add(60);  // default burn_spike threshold is 50 per window
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "burn_rate_spike");
  EXPECT_EQ(wd.fired(), 1u);
  EXPECT_EQ(wd.last_rule(), "burn_rate_spike");
}

// Growth below the threshold must never fire, even when the cumulative
// counter passes it: the rule reads the delta across the rolling window,
// and eviction forgets old readings.
TEST(WatchdogRules, SlowBurnGrowthStaysQuiet) {
  MetricsRegistry reg;
  telemetry::Counter& burn = reg.counter("audit.burn.queue_overflow");
  Watchdog wd(reg, nullptr);  // window 4, spike 50
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(wd.evaluate_once().has_value())
        << "fired at poll " << i << " on 10/poll growth";
    burn.add(10);  // window-of-4 delta is 30 < 50, forever
  }
  EXPECT_EQ(wd.fired(), 0u);
}

TEST(WatchdogRules, GrantRateStallNeedsBacklogAndFrozenGrants) {
  MetricsRegistry reg;
  telemetry::Counter& decisions = reg.counter("chip.decision_cycles");
  reg.counter("chip.grants");
  telemetry::Counter& enq = reg.counter("qm.enqueued");
  reg.counter("qm.dequeued");
  Watchdog wd(reg, nullptr);
  (void)wd.evaluate_once();
  decisions.add(100);  // >= stall_min_decisions (64) without a grant
  enq.add(10);         // backlog exists
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "grant_rate_stall");

  // Same window shape but grants moving: healthy, not a stall.
  MetricsRegistry reg2;
  telemetry::Counter& d2 = reg2.counter("chip.decision_cycles");
  telemetry::Counter& g2 = reg2.counter("chip.grants");
  telemetry::Counter& e2 = reg2.counter("qm.enqueued");
  Watchdog wd2(reg2, nullptr);
  (void)wd2.evaluate_once();
  d2.add(100);
  e2.add(10);
  g2.add(1);
  EXPECT_FALSE(wd2.evaluate_once().has_value());
}

TEST(WatchdogRules, RetrySurgeFires) {
  MetricsRegistry reg;
  telemetry::Counter& retries = reg.counter("robust.retries");
  Watchdog wd(reg, nullptr);
  (void)wd.evaluate_once();
  retries.add(40);  // default retry_surge threshold is 32
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "retry_surge");
}

TEST(WatchdogRules, DelayQuantileDriftAgainstRollingMedian) {
  MetricsRegistry reg;
  telemetry::Histogram& delay =
      reg.histogram("es.frame_delay_us", 1.0, 1e6, 64, /*log_scale=*/true);
  Watchdog wd(reg, nullptr);  // drift factor 4x, floor 50us, window 4
  for (int i = 0; i < 200; ++i) delay.observe(10.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(wd.evaluate_once().has_value())
        << "steady 10us p99 fired at poll " << i;
  }
  // The tail blows up: p99 jumps to ~5ms while the window median is ~10us.
  for (int i = 0; i < 2000; ++i) delay.observe(5000.0);
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "delay_quantile_drift");
}

// A p99 under the absolute floor never fires no matter the ratio — 1us ->
// 40us is a 40x drift but not an anomaly worth a dump.
TEST(WatchdogRules, DelayDriftBelowFloorIgnored) {
  MetricsRegistry reg;
  telemetry::Histogram& delay =
      reg.histogram("es.frame_delay_us", 1.0, 1e6, 64, /*log_scale=*/true);
  Watchdog wd(reg, nullptr);
  for (int i = 0; i < 200; ++i) delay.observe(1.0);
  for (int i = 0; i < 3; ++i) (void)wd.evaluate_once();
  for (int i = 0; i < 2000; ++i) delay.observe(30.0);  // p99 < 50us floor
  EXPECT_FALSE(wd.evaluate_once().has_value());
  EXPECT_EQ(wd.fired(), 0u);
}

TEST(WatchdogRules, InversionExcessPerHundredPops) {
  MetricsRegistry reg;
  telemetry::Counter& pops = reg.counter("rank.pops");
  telemetry::Counter& inv = reg.counter("rank.inversions");
  Watchdog wd(reg, nullptr);
  (void)wd.evaluate_once();
  pops.add(300);  // >= inversion_min_pops (200)
  inv.add(100);   // 33 per 100 pops >= 25% bound
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "inversion_excess");

  MetricsRegistry reg2;
  telemetry::Counter& p2 = reg2.counter("rank.pops");
  telemetry::Counter& i2 = reg2.counter("rank.inversions");
  Watchdog wd2(reg2, nullptr);
  (void)wd2.evaluate_once();
  p2.add(300);
  i2.add(30);  // 10% — the approximation degrading gracefully, no dump
  EXPECT_FALSE(wd2.evaluate_once().has_value());
}

TEST(WatchdogRules, EachRuleFiresAtMostOncePerRun) {
  MetricsRegistry reg;
  telemetry::Counter& burn = reg.counter("audit.burn.fault_stall");
  Watchdog wd(reg, nullptr);
  (void)wd.evaluate_once();
  burn.add(100);
  ASSERT_TRUE(wd.evaluate_once().has_value());
  EXPECT_EQ(wd.fired(), 1u);
  burn.add(100);  // a second spike: suppressed, no dump storm
  EXPECT_FALSE(wd.evaluate_once().has_value());
  burn.add(100);
  EXPECT_FALSE(wd.evaluate_once().has_value());
  EXPECT_EQ(wd.fired(), 1u);
}

// When several rules trip in the same window the evaluation order is
// fixed: burn spike outranks retry surge, so dumps attribute the most
// upstream symptom first.
TEST(WatchdogRules, EvaluationOrderPrefersBurnSpike) {
  MetricsRegistry reg;
  telemetry::Counter& burn = reg.counter("audit.burn.lost_tiebreak");
  telemetry::Counter& retries = reg.counter("robust.retries");
  Watchdog wd(reg, nullptr);
  (void)wd.evaluate_once();
  burn.add(100);
  retries.add(100);
  const std::optional<std::string> r = wd.evaluate_once();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, "burn_rate_spike");
  // The retry surge is still pending and fires on the next evaluation.
  const std::optional<std::string> r2 = wd.evaluate_once();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, "retry_surge");
}

TEST(WatchdogDump, FiringWritesAuditV2WithWindowContext) {
  MetricsRegistry reg;
  telemetry::Counter& burn = reg.counter("audit.burn.lost_tiebreak");
  AuditSession session(8);
  Watchdog wd(reg, &session);
  (void)wd.evaluate_once();
  burn.add(60);
  ASSERT_TRUE(wd.evaluate_once().has_value());

  const std::optional<AuditSession::Dump> dump = session.last_dump();
  ASSERT_TRUE(dump.has_value()) << "the firing left no dump";
  EXPECT_EQ(dump->cause, "watchdog:burn_rate_spike");
  const std::string& doc = dump->section;
  EXPECT_NE(doc.find("\"ring\":["), std::string::npos);
  // The context object: rule, per-cause detail, the observed value, the
  // threshold it crossed, and the window size it was judged over.
  EXPECT_NE(doc.find("\"watchdog\":"), std::string::npos);
  EXPECT_NE(doc.find("\"rule\":\"burn_rate_spike\""), std::string::npos);
  EXPECT_NE(doc.find("\"detail\":\"lost_tiebreak\""), std::string::npos);
  EXPECT_NE(doc.find("\"value\":60"), std::string::npos);
  EXPECT_NE(doc.find("\"threshold\":50"), std::string::npos);
  EXPECT_NE(doc.find("\"window_polls\":2"), std::string::npos);
}

TEST(WatchdogThread, StartStopIsIdempotentAndPolls) {
  MetricsRegistry reg;
  WatchdogConfig cfg;
  cfg.poll_interval = std::chrono::milliseconds(1);
  Watchdog wd(reg, nullptr, cfg);
  wd.start();
  wd.start();  // second start is a no-op, not a second thread
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wd.polls() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wd.stop();
  EXPECT_GE(wd.polls(), 3u) << "monitor thread never polled";
  EXPECT_EQ(wd.fired(), 0u);
  wd.stop();  // idempotent
}

TEST(WatchdogThread, MonitorThreadObservesSurge) {
  MetricsRegistry reg;
  telemetry::Counter& retries = reg.counter("robust.retries");
  WatchdogConfig cfg;
  cfg.poll_interval = std::chrono::milliseconds(1);
  Watchdog wd(reg, nullptr, cfg);
  wd.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Let the thread take a quiet baseline poll, then surge from this
  // (foreign) thread — counters are the cross-thread channel.
  while (wd.polls() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(wd.polls(), 2u);
  retries.add(100);
  while (wd.fired() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wd.stop();
  EXPECT_EQ(wd.fired(), 1u);
  EXPECT_EQ(wd.last_rule(), "retry_surge");
}

// stop() runs one final evaluation before returning, so an anomaly that
// lands inside the last poll interval of a short run is still caught.
TEST(WatchdogThread, StopRunsFinalSweep) {
  MetricsRegistry reg;
  telemetry::Counter& retries = reg.counter("robust.retries");
  WatchdogConfig cfg;
  cfg.poll_interval = std::chrono::milliseconds(200);
  Watchdog wd(reg, nullptr, cfg);
  (void)wd.evaluate_once();  // baseline reading
  wd.start();
  retries.add(100);
  wd.stop();  // joins within one interval, then sweeps once more
  EXPECT_GE(wd.fired(), 1u);
  EXPECT_EQ(wd.last_rule(), "retry_surge");
}

}  // namespace
}  // namespace ss
