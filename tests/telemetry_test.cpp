// telemetry_test.cpp — the lock-free metrics registry and the
// frame-lifecycle trace.
//
// The unit half pins down the primitives' contracts: counters add and
// reset exactly, gauges' update_max is a true high-water mark,
// histogram quantiles stay within one bin width of truth and the log
// bins' same-bin fast path never moves a sample, registration is
// idempotent per name, and the exports carry the schema CI jq-checks.
// The TelemetryStress half is the reason the registry exists at all: a
// monitor thread hammering snapshot()/to_json() while the threaded
// endsystem's producer and scheduler threads write their own handles in
// one registry — under -DSS_SANITIZE=thread this is the "sample it live,
// no locks on the hot path" claim stated as the absence of data races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/threaded_endsystem.hpp"
#include "telemetry/frame_trace.hpp"
#include "telemetry/instruments.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observability.hpp"
#include "util/rng.hpp"
#include "util/json.hpp"

namespace ss {
namespace {

using telemetry::MetricsRegistry;

TEST(TelemetryCounter, SumsIncrementsAndResets) {
  telemetry::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryGauge, SetAddAndHighWaterMark) {
  telemetry::Gauge g;
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.update_max(7);  // below current: no effect
  EXPECT_EQ(g.value(), 10);
  g.update_max(12);
  EXPECT_EQ(g.value(), 12);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(TelemetryHistogram, CountSumAndLinearQuantiles) {
  telemetry::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);  // uniform on (0, 100)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5000.0, 1e-9);
  // One-bin-width error bound: bins are 1 wide here.
  EXPECT_NEAR(h.quantile(50.0), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(90.0), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(99.0), 99.0, 1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(50.0), 0.0) << "empty histogram quantile must be 0";
}

// Out-of-range samples clamp to the edge bins — observations are never
// silently dropped, and count/sum still see them.
TEST(TelemetryHistogram, OutOfRangeSamplesClampToEdges) {
  telemetry::Histogram h(10.0, 20.0, 10);
  h.observe(-1e9);
  h.observe(1e9);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(h.bins() - 1), 1u);
}

TEST(TelemetryRegistry, RegistrationIsIdempotentPerName) {
  MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("chip.grants");
  telemetry::Counter& b = reg.counter("chip.grants");
  EXPECT_EQ(&a, &b) << "same name must resolve to one counter";
  telemetry::Gauge& g1 = reg.gauge("qm.occupancy_high_water");
  telemetry::Gauge& g2 = reg.gauge("qm.occupancy_high_water");
  EXPECT_EQ(&g1, &g2);
  telemetry::Histogram& h1 = reg.histogram("te.batch_size", 0.0, 33.0, 33);
  // Re-registration with a different layout still returns the original —
  // first registration wins.
  telemetry::Histogram& h2 = reg.histogram("te.batch_size", 0.0, 1.0, 2);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bins(), 33u);
  EXPECT_EQ(reg.size(), 3u);
}

// The instrument bundles lean on that idempotence: two create() calls
// against one registry must alias, not double-register.
TEST(TelemetryRegistry, InstrumentBundlesAliasAcrossCreates) {
  MetricsRegistry reg;
  const telemetry::ChipMetrics m1 = telemetry::ChipMetrics::create(reg);
  const std::size_t after_first = reg.size();
  const telemetry::ChipMetrics m2 = telemetry::ChipMetrics::create(reg);
  EXPECT_EQ(reg.size(), after_first);
  EXPECT_EQ(m1.decisions, m2.decisions);
  m1.grants->add(3);
  m2.grants->add(4);
  EXPECT_EQ(m1.grants->value(), 7u);
}

TEST(TelemetryRegistry, SnapshotSortedAndJsonCarriesSchema) {
  const std::string path = ::testing::TempDir() + "registry_run.json";
  telemetry::ObservabilityOptions opts;
  opts.out = path;
  telemetry::Observability obs(opts, 4, /*profiled=*/false);
  MetricsRegistry& reg = obs.registry();
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("c.depth").set(-3);
  reg.histogram("d.delay", 0.0, 10.0, 10).observe(5.0);

  const telemetry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snap.samples.begin(), snap.samples.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));

  const std::string json = snap.to_json();
  EXPECT_EQ(json.find("\"schema\""), std::string::npos)
      << "the schema key belongs to the run document, not its sections";
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c.depth\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"d.delay\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "export is one line";

  // The run document carries the schema, and the snapshot as its metrics
  // section.
  ASSERT_TRUE(obs.finish("telemetry_test"));
  const auto doc = util::parse_json_file(path);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str_at("schema"), "ss-run-v1");
  const util::JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->num_at("a.count"), 1.0);
  EXPECT_EQ(metrics->find("gauges")->num_at("c.depth"), -3.0);
  std::remove(path.c_str());

  reg.reset();
  EXPECT_EQ(reg.counter("a.count").value(), 0u);
  EXPECT_EQ(reg.gauge("c.depth").value(), 0);
  EXPECT_EQ(reg.size(), 4u) << "reset zeroes values, not registrations";
}

TEST(Histogram, BinsAndRanges) {
  telemetry::Histogram h(0, 100, 10);
  h.observe(5);
  h.observe(15);
  h.observe(15.5);
  h.observe(99.999);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 20.0);
}

// Log-binned quantile estimates against exact order statistics: with 1024
// bins over [0.01, 1e7] (the QoS monitor's delay layout) every bin is
// under 2.1% wide, so the relative error bound is one bin's width.
TEST(TelemetryHistogram, LogspacePercentileTracksExactOrderStatistics) {
  telemetry::Histogram h(0.01, 1e7, 1024, /*log_scale=*/true);
  std::vector<double> xs;
  // A deterministic heavy-tailed-ish spread over several decades.
  for (int i = 1; i <= 5000; ++i) {
    xs.push_back(0.5 * std::pow(1.002, i));  // 0.5 .. ~11k
  }
  for (const double x : xs) h.observe(x);
  std::sort(xs.begin(), xs.end());
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double exact =
        xs[static_cast<std::size_t>(p / 100.0 * (xs.size() - 1))];
    const double est = h.quantile(p);
    EXPECT_NEAR(est / exact, 1.0, 0.022)
        << "p" << p << ": est=" << est << " exact=" << exact;
  }
}

// Extreme tails of quantile().  p0 must resolve to the first *occupied*
// bin's low edge, not the histogram's lower bound, and p100 to the last
// occupied bin's high edge.
TEST(TelemetryHistogram, PercentileExtremeTails) {
  {
    telemetry::Histogram h(0.0, 100.0, 10);  // 10-wide bins
    h.observe(55.0);                         // single sample, bin [50, 60)
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 50.0) << "p0 = occupied bin low edge";
    EXPECT_DOUBLE_EQ(h.quantile(100.0), 60.0)
        << "p100 = occupied bin high edge";
    EXPECT_NEAR(h.quantile(50.0), 55.0, 1e-9) << "midpoint interpolation";
  }
  {
    telemetry::Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 1000; ++i) h.observe(72.0);  // all mass in one bin
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 70.0);
    EXPECT_DOUBLE_EQ(h.quantile(100.0), 80.0);
    const double p50 = h.quantile(50.0);
    EXPECT_GE(p50, 70.0);
    EXPECT_LE(p50, 80.0);
  }
  {
    telemetry::Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0) << "empty histogram";
    EXPECT_DOUBLE_EQ(h.quantile(100.0), 0.0);
  }
  {
    // Log-scale single sample: the same edge contract on the log bins.
    telemetry::Histogram h(1.0, 1024.0, 10, /*log_scale=*/true);  // x2 bins
    h.observe(48.0);  // bin [32, 64)
    EXPECT_NEAR(h.quantile(0.0), 32.0, 1e-9);
    EXPECT_NEAR(h.quantile(100.0), 64.0, 1e-9);
  }
}

// Feeds `xs` in order to one long-lived log histogram over [0.01, 1e7)
// with 1024 bins (its cache warm: hit, stepped or refreshed on every
// sample) and checks each sample lands in the bin a fresh histogram (its
// cache empty, so index_of decides) picks.
void expect_cached_bins_match_index_of(const std::vector<double>& xs) {
  constexpr double kLo = 0.01, kHi = 1e7;
  constexpr std::size_t kBins = 1024;
  telemetry::Histogram warm(kLo, kHi, kBins, /*log_scale=*/true);
  for (const double x : xs) {
    telemetry::Histogram fresh(kLo, kHi, kBins, /*log_scale=*/true);
    fresh.observe(x);
    std::size_t want = kBins;
    for (std::size_t b = 0; b < kBins && want == kBins; ++b) {
      if (fresh.bin_count(b) == 1) want = b;
    }
    ASSERT_LT(want, kBins);
    const std::uint64_t before = warm.bin_count(want);
    warm.observe(x);
    ASSERT_EQ(warm.bin_count(want), before + 1)
        << "x=" << x << " left bin " << want;
  }
  EXPECT_EQ(warm.count(), xs.size());
}

// The log bins' same-bin fast path answers from a cached bin range
// instead of taking the logarithm; it must never place a sample in a bin
// other than the one the exact slow path picks: on a seeded sweep that
// repeats values, walks up and down inside a bin, and lands within 1e-9
// (relative) of both edges of the bin the cache holds.
TEST(TelemetryHistogram, SameBinFastPathNeverChangesABin) {
  const telemetry::Histogram h(0.01, 1e7, 1024, /*log_scale=*/true);
  Rng rng(20030422);
  std::vector<double> xs;
  for (std::size_t b = 0; b < h.bins(); b += 1 + rng.below(3)) {
    const double lo = h.bin_lo(b), hi = h.bin_hi(b);
    const double mid = std::sqrt(lo * hi);
    // Warm the cache on bin b, repeat it, then probe both edges.
    for (std::uint64_t r = 1 + rng.below(4); r > 0; --r) xs.push_back(mid);
    for (const double edge : {lo, hi}) {
      for (const double rel : {-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12,
                               1e-9}) {
        xs.push_back(edge * (1.0 + rel));
        xs.push_back(mid);  // back into bin b: the cache holds b again
      }
      xs.push_back(std::nextafter(edge, 0.0));
      xs.push_back(mid);
      xs.push_back(std::nextafter(edge, 1e7));
      xs.push_back(mid);
    }
    xs.push_back(lo + (hi - lo) * rng.uniform());
  }
  expect_cached_bins_match_index_of(xs);
}

// A sample just above the cached bin first tries the next bin (one
// std::exp for its upper edge) before index_of.  Every bin that step
// picks must be index_of's: on a monotone geometric sweep over the whole
// range whose ratio is a third of a bin (so nearly every miss steps); on
// samples in the margin slivers of each edge the step crosses, met from
// the bin below; and in the last bin and at or above hi, where there is
// no next bin.
TEST(TelemetryHistogram, NextBinStepPicksIndexOfsBin) {
  const telemetry::Histogram h(0.01, 1e7, 1024, /*log_scale=*/true);
  const double bin_ratio = h.bin_hi(0) / h.bin_lo(0);
  std::vector<double> xs;
  for (double x = 0.01; x < 1.5e7; x *= 1.0 + (bin_ratio - 1.0) / 3.0) {
    xs.push_back(x);
  }
  for (std::size_t b = 1; b < h.bins(); ++b) {
    const double below = std::sqrt(h.bin_lo(b - 1) * h.bin_hi(b - 1));
    const double edge = h.bin_lo(b);
    for (const double rel : {-1e-10, 0.0, 1e-10, 1e-9, 2e-9}) {
      xs.push_back(below);  // the cache holds bin b - 1
      xs.push_back(edge * (1.0 + rel));
    }
    xs.push_back(below);
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(below);
    xs.push_back(std::nextafter(edge, 1e7));
  }
  const double last_mid =
      std::sqrt(h.bin_lo(h.bins() - 1) * h.bin_hi(h.bins() - 1));
  for (const double x : {1e7 * (1.0 - 1e-10), 1e7, 1e7 * (1.0 + 1e-9), 1e8,
                         std::numeric_limits<double>::infinity()}) {
    xs.push_back(last_mid);  // the cache holds the last bin
    xs.push_back(x);
  }
  expect_cached_bins_match_index_of(xs);
}

TEST(FrameTraceTest, RingBoundsRetentionButCountsEverything) {
  telemetry::FrameTrace ft(8);
  for (std::uint64_t i = 0; i < 20; ++i) ft.arrival(0, i, i * 1000);
  EXPECT_EQ(ft.size(), 8u);
  EXPECT_EQ(ft.recorded(), 20u);
  ft.clear();
  EXPECT_EQ(ft.size(), 0u);
}

// A wrapped ring is a truncated timeline; the truncation must be visible
// in three places — the dropped() accessor, the export's metadata object,
// and (when bound) the telemetry.trace.dropped_events counter — so nobody
// reads a partial trace as a complete one.
TEST(FrameTraceTest, WrapDroppedEventsAreAccountedEverywhere) {
  MetricsRegistry reg;
  telemetry::FrameTrace ft(8);
  ft.bind_registry(reg);
  for (std::uint64_t i = 0; i < 20; ++i) ft.arrival(0, i, i * 1000);
  EXPECT_EQ(ft.recorded(), 20u);
  EXPECT_EQ(ft.dropped(), 12u) << "20 recorded - 8 retained";
  EXPECT_EQ(reg.counter("telemetry.trace.dropped_events").value(), 12u);
  const std::string j = ft.to_chrome_json();
  EXPECT_NE(j.find("\"metadata\":{\"dropped\":12"), std::string::npos);

  // An unwrapped trace reports zero everywhere.
  telemetry::FrameTrace small(8);
  for (std::uint64_t i = 0; i < 5; ++i) small.arrival(0, i, i * 1000);
  EXPECT_EQ(small.dropped(), 0u);
  EXPECT_NE(small.to_chrome_json().find("\"metadata\":{\"dropped\":0"),
            std::string::npos);

  ft.clear();
  EXPECT_EQ(ft.dropped(), 0u) << "clear resets the wrap accounting";
}

TEST(FrameTraceTest, ChromeJsonHasTracksAndLifecycleSpans) {
  telemetry::FrameTrace ft;
  // One frame's full life on stream 2: arrive, enqueue, cross PCI, get a
  // grant in decision 7 at batch index 1, transmit.
  ft.arrival(2, 0, 1000);
  ft.enqueue(2, 0, 1200);
  ft.pci(telemetry::PciDir::kWrite, 1500, 300, 4);
  ft.grant(2, 0, 5000, 7, 1);
  ft.transmit(2, 0, 5200, 12000, 1500);
  ft.drop(2, 1, 9000);

  const std::string j = ft.to_chrome_json();
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos) << "metadata tracks";
  EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos) << "async span open";
  EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos) << "async span close";
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos)
      << "pci/transmit duration events";
  EXPECT_NE(j.find("\"decision\":7"), std::string::npos);
  EXPECT_NE(j.find("\"batch_index\":1"), std::string::npos);
  // Both process tracks exist: stage timeline and per-stream spans.
  EXPECT_NE(j.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(j.find("\"pid\":2"), std::string::npos);
}

// After the ring wraps, the export must contain exactly the newest
// `capacity` events in chronological (oldest -> newest) order — the write
// head sits mid-ring, so a naive 0..size dump would splice the timeline.
TEST(FrameTraceTest, ChromeJsonChronologicalAfterWrap) {
  telemetry::FrameTrace ft(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ft.arrival(0, i, i * 1000);  // ts = i us in the export
  }
  ASSERT_EQ(ft.size(), 8u);
  const std::string j = ft.to_chrome_json();
  // Evicted events (ts 0..11 us) are gone; survivors (12..19 us) appear in
  // ascending timestamp order.
  EXPECT_EQ(j.find("\"ts\":11.000"), std::string::npos)
      << "evicted event leaked into the export";
  std::size_t prev = 0;
  for (std::uint64_t i = 12; i < 20; ++i) {
    const std::string needle =
        "\"ts\":" + std::to_string(i) + ".000";
    const std::size_t pos = j.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing retained event at " << i;
    EXPECT_GT(pos, prev) << "export not chronological at " << i;
    prev = pos;
  }
}

dwcs::StreamRequirement fair_share(double w) {
  dwcs::StreamRequirement r;
  r.kind = dwcs::RequirementKind::kFairShare;
  r.weight = w;
  r.droppable = false;
  return r;
}

// The registry's reason to exist: a monitor thread snapshots and renders
// while the producer thread (qm.* counters) and the scheduler thread
// (chip.*/te.*/es.* counters) increment concurrently.  TSan must see no
// races, and the post-run totals must agree exactly with the report —
// sampling never loses increments.
TEST(TelemetryStress, SnapshotRacesThreadedEndsystemRun) {
  MetricsRegistry reg;
  core::ThreadedConfig cfg;
  cfg.chip.slots = 8;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.chip.block_mode = true;
  cfg.chip.batch_depth = 4;
  cfg.chip.schedule = hw::SortSchedule::kBitonic;
  cfg.ring_capacity = 8;  // starved rings: both feeder threads stay hot
  cfg.metrics = &reg;
  core::ThreadedEndsystem es(cfg);
  for (unsigned i = 0; i < 8; ++i) es.add_stream(fair_share(1.0 + (i % 3)));

  // The run starts only after the monitor's first snapshot, and a
  // snapshot counts as mid-run when the run was in flight at both its
  // start and its end.
  std::atomic<bool> done{false};
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> mid_run{0};
  std::thread monitor([&] {
    std::uint64_t last_tx = 0;
    while (!done.load(std::memory_order_acquire)) {
      const bool ran_at_start = running.load(std::memory_order_acquire);
      const telemetry::Snapshot snap = reg.snapshot();
      for (const telemetry::Sample& s : snap.samples) {
        if (s.name == "te.tx_frames") {
          // Monotonicity across snapshots: a counter never goes backward.
          EXPECT_GE(s.count, last_tx);
          last_tx = s.count;
        }
      }
      // Exercise the render path too — it shares the snapshot lock.
      // (EXPECT, not ASSERT: the run waits for this loop's first pass.)
      EXPECT_NE(reg.to_json().find("\"counters\":{"), std::string::npos);
      if (ran_at_start && running.load(std::memory_order_acquire)) {
        mid_run.fetch_add(1, std::memory_order_relaxed);
      }
      snapshots.fetch_add(1, std::memory_order_release);
    }
  });

  while (snapshots.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  running.store(true, std::memory_order_release);
  const auto rep = es.run(2000);
  running.store(false, std::memory_order_release);
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_GT(mid_run.load(), 0u) << "monitor never sampled mid-run";
  EXPECT_EQ(rep.frames_transmitted, 8u * 2000u);
  // Quiesced totals must match the report exactly: the one-writer adds
  // dropped nothing.
  EXPECT_EQ(reg.counter("te.tx_frames").value(), rep.frames_transmitted);
  EXPECT_EQ(reg.counter("qm.enqueued").value(), rep.frames_produced);
  EXPECT_EQ(reg.counter("qm.ring_full_pushes").value(),
            rep.producer_full_stalls);
  EXPECT_EQ(reg.counter("es.frames_completed").value(),
            rep.frames_transmitted);
  EXPECT_GT(reg.counter("chip.decision_cycles").value(), 0u);
}

}  // namespace
}  // namespace ss
