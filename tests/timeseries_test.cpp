// timeseries_test.cpp — the continuous-telemetry interval sampler and the
// watchdog's migration onto it.
//
// Three layers of contract:
//
//  * TimeSeries unit behavior — counter deltas/rates, gauge last/max,
//    zero-backfill for late-registered series, ring trim accounting,
//    window() semantics (including the absent-instrumentation contract),
//    the run document's timeseries section shape, and the closing-window
//    sweep.
//  * Interval percentiles — the bin-delta p50/p99 must track the exact
//    order statistics of *only that interval's* observations, even when
//    the lifetime mix says something completely different.
//  * Watchdog parity — the Watchdog used to keep private rolling deques;
//    it now evaluates over a TimeSeries.  A reference implementation of
//    the historical deque evaluator is driven side by side with the real
//    Watchdog over identical pseudo-random registry campaigns, and every
//    firing must match: same poll index, same rule, and (for the
//    deterministic scenario) byte-identical window context in the dump.
//    The TimeSeriesStress suite races the sampler against the threaded
//    endsystem for the TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/threaded_endsystem.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"

namespace ss {
namespace {

using telemetry::MetricsRegistry;
using telemetry::SeriesKind;
using telemetry::TimeSeries;
using telemetry::TimeSeriesConfig;
using telemetry::TsPoint;
using telemetry::Watchdog;
using telemetry::WatchdogConfig;

TEST(TimeSeriesBasics, CounterDeltaAndCumulative) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("x.events");
  TimeSeries ts(reg);
  c.add(10);
  ts.sample_once();
  c.add(5);
  ts.sample_once();
  ts.sample_once();  // no growth this interval

  const std::vector<TsPoint> w = ts.window("x.events", 3);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].cum, 10u);
  EXPECT_EQ(w[0].delta, 10u);
  EXPECT_EQ(w[1].cum, 15u);
  EXPECT_EQ(w[1].delta, 5u);
  EXPECT_EQ(w[2].cum, 15u);
  EXPECT_EQ(w[2].delta, 0u);
  EXPECT_GT(w[0].rate_per_s, 0.0);
  EXPECT_EQ(w[2].rate_per_s, 0.0);
  // Monotonic interval stamps.
  EXPECT_LT(w[0].t_ns, w[1].t_ns);
  EXPECT_LT(w[1].t_ns, w[2].t_ns);

  SeriesKind kind;
  ASSERT_TRUE(ts.kind_of("x.events", kind));
  EXPECT_EQ(kind, SeriesKind::kCounter);
}

TEST(TimeSeriesBasics, GaugeLastAndRunningMax) {
  MetricsRegistry reg;
  telemetry::Gauge& g = reg.gauge("x.depth");
  TimeSeries ts(reg);
  g.set(7);
  ts.sample_once();
  g.set(3);
  ts.sample_once();

  const std::vector<TsPoint> w = ts.window("x.depth", 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].last, 7);
  EXPECT_EQ(w[0].max, 7);
  EXPECT_EQ(w[1].last, 3);
  EXPECT_EQ(w[1].max, 7) << "running max must survive the dip";
}

// A series registered after sampling began gets zero-filled points with
// the real historical t_ns stamps, so every ring stays lockstep with the
// shared time axis and window() never has to reconcile lengths.
TEST(TimeSeriesBasics, LateRegistrationBackfillsZeros) {
  MetricsRegistry reg;
  reg.counter("early");
  TimeSeries ts(reg);
  ts.sample_once();
  ts.sample_once();
  telemetry::Counter& late = reg.counter("late");
  late.add(9);
  ts.sample_once();

  const std::vector<TsPoint> w = ts.window("late", 3);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].cum, 0u);
  EXPECT_EQ(w[1].cum, 0u);
  EXPECT_EQ(w[2].cum, 9u);
  // The backfilled stamps are the shared axis, not zeros.
  const std::vector<TsPoint> e = ts.window("early", 3);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(w[0].t_ns, e[0].t_ns);
  EXPECT_EQ(w[1].t_ns, e[1].t_ns);
  // The first delta after backfill is measured against zero, so the
  // whole cumulative value lands in one interval — visible, not lost.
  EXPECT_EQ(w[2].delta, 9u);
}

TEST(TimeSeriesBasics, RingTrimsToCapacityAndCountsDropped) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("x");
  TimeSeriesConfig cfg;
  cfg.capacity = 4;
  TimeSeries ts(reg, cfg);
  for (int i = 0; i < 7; ++i) {
    c.add(1);
    ts.sample_once();
  }
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.intervals(), 7u);
  EXPECT_EQ(ts.dropped(), 3u);
  // The retained window is the *latest* 4 intervals: cum 4..7.
  const std::vector<TsPoint> w = ts.window("x", 4);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.front().cum, 4u);
  EXPECT_EQ(w.back().cum, 7u);
}

// The absent-instrumentation contract: asking for a series the registry
// never carried yields real-length, real-stamped, all-zero readings —
// watchdog rules over it simply never trip.
TEST(TimeSeriesBasics, UnknownSeriesYieldsZeroReadingsWithStamps) {
  MetricsRegistry reg;
  reg.counter("present");
  TimeSeries ts(reg);
  ts.sample_once();
  ts.sample_once();
  const std::vector<TsPoint> w = ts.window("never.registered", 4);
  ASSERT_EQ(w.size(), 2u) << "min(w, size()) points, not empty";
  for (const TsPoint& p : w) {
    EXPECT_GT(p.t_ns, 0u);
    EXPECT_EQ(p.cum, 0u);
    EXPECT_EQ(p.delta, 0u);
  }
  SeriesKind kind;
  EXPECT_FALSE(ts.kind_of("never.registered", kind));
}

TEST(TimeSeriesBasics, JsonDocumentShape) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("chip.grants");
  telemetry::Gauge& g = reg.gauge("qm.depth");
  telemetry::Histogram& h =
      reg.histogram("es.frame_delay_us", 1.0, 1e6, 64, /*log_scale=*/true);
  TimeSeries ts(reg);
  c.add(3);
  g.set(2);
  h.observe(100.0);
  ts.sample_once();
  ts.sample_once();

  const std::string doc = ts.to_json();
  EXPECT_EQ(doc.find('\n'), std::string::npos) << "single-line contract";
  EXPECT_EQ(doc.find("\"schema\""), std::string::npos)
      << "the schema key belongs to the run document, not its sections";
  EXPECT_NE(doc.find("\"t_ns\":["), std::string::npos);
  EXPECT_NE(doc.find("\"retained\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"intervals\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"chip.grants\""), std::string::npos);
  EXPECT_NE(doc.find("\"qm.depth\""), std::string::npos);
  EXPECT_NE(doc.find("\"es.frame_delay_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"cum\":[3,3]"), std::string::npos);
  EXPECT_NE(doc.find("\"delta\":[3,0]"), std::string::npos);
}

TEST(TimeSeriesBasics, TailTextElidesQuietCountersKeepsActive) {
  MetricsRegistry reg;
  telemetry::Counter& hot = reg.counter("hot.counter");
  reg.counter("quiet.counter");
  TimeSeries ts(reg);
  ts.sample_once();
  hot.add(42);
  ts.sample_once();
  const std::string tail = ts.tail_text(4);
  EXPECT_NE(tail.find("hot.counter"), std::string::npos);
  EXPECT_EQ(tail.find("quiet.counter"), std::string::npos)
      << "zero-growth counters are noise next to a divergence";
}

// stop() joins the monitor thread and then takes one final sample, so
// activity inside the last (unfinished) poll interval is still recorded.
TEST(TimeSeriesThread, StartStopTakesClosingSample) {
  MetricsRegistry reg;
  telemetry::Counter& c = reg.counter("x");
  TimeSeriesConfig cfg;
  cfg.poll_interval = std::chrono::milliseconds(200);
  TimeSeries ts(reg, cfg);
  ts.start();
  ts.start();  // idempotent
  c.add(5);
  ts.stop();  // joins well before the first 200ms tick
  ts.stop();  // idempotent
  ASSERT_GE(ts.size(), 1u);
  const std::vector<TsPoint> w = ts.window("x", ts.size());
  EXPECT_EQ(w.back().cum, 5u) << "closing-window sweep missed the tail";
}

// ---------------------------------------------------------------------------
// Interval percentiles: the bin-delta estimate must describe only the
// interval's own observations.
// ---------------------------------------------------------------------------

double exact_percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min(xs.size() - 1.0, p / 100.0 * static_cast<double>(xs.size())));
  return xs[idx];
}

TEST(TimeSeriesPercentiles, IntervalP99TracksOnlyThisIntervalsBurst) {
  MetricsRegistry reg;
  telemetry::Histogram& h =
      reg.histogram("es.frame_delay_us", 1.0, 1e6, 64, /*log_scale=*/true);
  TimeSeries ts(reg);

  // Interval 1: a calm 10us regime.
  std::vector<double> calm;
  for (int i = 0; i < 1000; ++i) calm.push_back(10.0);
  for (double x : calm) h.observe(x);
  ts.sample_once();

  // Interval 2: a 5ms burst.  The lifetime mix is still mostly calm, but
  // the interval percentile must see only the burst.
  std::vector<double> burst;
  for (int i = 0; i < 500; ++i) burst.push_back(5000.0);
  for (double x : burst) h.observe(x);
  ts.sample_once();

  const std::vector<TsPoint> w = ts.window("es.frame_delay_us", 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].count_delta, 1000u);
  EXPECT_EQ(w[1].count_delta, 500u);

  // Log bins over [1, 1e6] with 64 bins: one bin spans a factor of
  // ~1.24, which bounds the interpolation error.
  const double exact1_p99 = exact_percentile(calm, 99.0);
  const double exact2_p99 = exact_percentile(burst, 99.0);
  EXPECT_NEAR(w[0].p99 / exact1_p99, 1.0, 0.3);
  EXPECT_NEAR(w[1].p99 / exact2_p99, 1.0, 0.3);
  EXPECT_NEAR(w[1].p50 / exact_percentile(burst, 50.0), 1.0, 0.3);

  // The cumulative estimate at the same instant still reflects the
  // lifetime mix (2/3 calm): interval and lifetime disagree, by design.
  EXPECT_LT(w[1].cum_p50, 100.0) << "lifetime p50 should still be calm";
  EXPECT_GT(w[1].p50, 1000.0) << "interval p50 should be the burst";
}

// A quiet interval on a busy histogram reports zero interval percentiles
// (no observations to describe) while the cumulative estimate persists.
TEST(TimeSeriesPercentiles, QuietIntervalReportsZeroNotStale) {
  MetricsRegistry reg;
  telemetry::Histogram& h =
      reg.histogram("es.frame_delay_us", 1.0, 1e6, 64, /*log_scale=*/true);
  TimeSeries ts(reg);
  for (int i = 0; i < 200; ++i) h.observe(50.0);
  ts.sample_once();
  ts.sample_once();  // nothing observed in between
  const std::vector<TsPoint> w = ts.window("es.frame_delay_us", 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1].count_delta, 0u);
  EXPECT_EQ(w[1].p99, 0.0);
  EXPECT_GT(w[1].cum_p99, 0.0);
}

// ---------------------------------------------------------------------------
// Watchdog parity: the historical deque evaluator, reimplemented as a
// reference, must agree with the TimeSeries-backed Watchdog on every
// firing across randomized campaigns.
// ---------------------------------------------------------------------------

// The exact context format the watchdog emits (kept in lockstep with
// watchdog.cpp's fmt_ctx — the dump-context parity test below enforces
// agreement through the real dump path).
std::string ref_ctx(const char* rule, const char* detail, double value,
                    double threshold, std::size_t window_polls) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"rule\":\"%s\",\"detail\":\"%s\",\"value\":%.6g,"
                "\"threshold\":%.6g,\"window_polls\":%zu}",
                rule, detail, value, threshold, window_polls);
  return buf;
}

// Reference reimplementation of the pre-TimeSeries watchdog: private
// rolling deques of (counter cumulative, delay cum-p99) readings, capped
// at cfg.window, rules evaluated in fixed order with once-per-run
// suppression.  This is deliberately the *old* shape — the parity
// campaign proves the shared-backend refactor changed nothing visible.
// It keeps its own copy of the rule thresholds.
class ReferenceWatchdog {
  static constexpr double kDelayDriftFactor = 4.0;
  static constexpr double kDelayFloorUs = 50.0;
  static constexpr std::uint64_t kBurnSpike = 50;
  static constexpr std::uint64_t kStallMinDecisions = 64;
  static constexpr std::uint64_t kRetrySurge = 32;
  static constexpr double kInversionExcessPct = 25.0;
  static constexpr std::uint64_t kInversionMinPops = 200;

 public:
  explicit ReferenceWatchdog(MetricsRegistry& reg, WatchdogConfig cfg = {})
      : reg_(reg), cfg_(cfg) {
    if (cfg_.window < 2) cfg_.window = 2;
  }

  struct Firing {
    std::uint64_t poll = 0;  ///< 1-based poll index at which it fired
    std::string rule;
    std::string context;
  };

  std::optional<std::string> evaluate_once() {
    poll_reading();
    ++polls_;
    return evaluate();
  }

  [[nodiscard]] const std::vector<Firing>& firings() const {
    return firings_;
  }

 private:
  struct Reading {
    std::vector<std::uint64_t> burn;  // kBurnCauses causes
    std::uint64_t decisions = 0, grants = 0, enq = 0, deq = 0;
    std::uint64_t retries = 0, pops = 0, inversions = 0;
    double delay_p99 = 0.0;
  };

  void poll_reading() {
    Reading r;
    for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
      r.burn.push_back(
          reg_.counter(std::string("audit.burn.") +
                       telemetry::burn_cause_name(c))
              .value());
    }
    r.decisions = reg_.counter("chip.decision_cycles").value();
    r.grants = reg_.counter("chip.grants").value();
    r.enq = reg_.counter("qm.enqueued").value();
    r.deq = reg_.counter("qm.dequeued").value();
    r.retries = reg_.counter("robust.retries").value();
    r.pops = reg_.counter("rank.pops").value();
    r.inversions = reg_.counter("rank.inversions").value();
    r.delay_p99 =
        reg_.histogram("es.frame_delay_us", 1.0, 1e6, 64, true).quantile(99.0);
    window_.push_back(std::move(r));
    while (window_.size() > cfg_.window) window_.pop_front();
  }

  bool suppressed(const char* rule) const {
    for (const Firing& f : firings_) {
      if (f.rule == rule) return true;
    }
    return false;
  }

  std::optional<std::string> fire(const char* rule, const char* detail,
                                  double value, double threshold) {
    firings_.push_back(
        {polls_, rule, ref_ctx(rule, detail, value, threshold,
                               window_.size())});
    return rule;
  }

  std::optional<std::string> evaluate() {
    const std::size_t n = window_.size();
    if (n < 2) return std::nullopt;
    const Reading& a = window_.front();
    const Reading& b = window_.back();

    if (!suppressed("burn_rate_spike")) {
      for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
        const std::uint64_t d = b.burn[c] - a.burn[c];
        if (d >= kBurnSpike) {
          return fire("burn_rate_spike", telemetry::burn_cause_name(c),
                      static_cast<double>(d),
                      static_cast<double>(kBurnSpike));
        }
      }
    }
    if (!suppressed("grant_rate_stall")) {
      const std::uint64_t decisions = b.decisions - a.decisions;
      const std::uint64_t backlog = b.enq > b.deq ? b.enq - b.deq : 0;
      if (decisions >= kStallMinDecisions && backlog > 0 &&
          b.grants == a.grants) {
        return fire("grant_rate_stall", "decisions_without_grant",
                    static_cast<double>(decisions),
                    static_cast<double>(kStallMinDecisions));
      }
    }
    if (!suppressed("retry_surge")) {
      const std::uint64_t d = b.retries - a.retries;
      if (d >= kRetrySurge) {
        return fire("retry_surge", "retries", static_cast<double>(d),
                    static_cast<double>(kRetrySurge));
      }
    }
    if (!suppressed("delay_quantile_drift")) {
      std::vector<double> p99s;
      for (const Reading& r : window_) p99s.push_back(r.delay_p99);
      const double latest = p99s.back();
      std::sort(p99s.begin(), p99s.end());
      const double median = p99s[p99s.size() / 2];
      if (latest >= kDelayFloorUs && median > 0.0 &&
          latest >= kDelayDriftFactor * median) {
        return fire("delay_quantile_drift", "p99_us", latest,
                    kDelayDriftFactor * median);
      }
    }
    if (!suppressed("inversion_excess")) {
      const std::uint64_t pops = b.pops - a.pops;
      const std::uint64_t inv = b.inversions - a.inversions;
      if (pops >= kInversionMinPops) {
        const double pct =
            100.0 * static_cast<double>(inv) / static_cast<double>(pops);
        if (pct >= kInversionExcessPct) {
          return fire("inversion_excess", "inversions_per_100_pops", pct,
                      kInversionExcessPct);
        }
      }
    }
    return std::nullopt;
  }

  MetricsRegistry& reg_;
  WatchdogConfig cfg_;
  std::deque<Reading> window_;
  std::uint64_t polls_ = 0;
  std::vector<Firing> firings_;
};

// Deterministic xorshift so the campaign mutation schedule is identical
// on every platform (no std::rand, no distribution differences).
struct TinyRng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Registers the rule-relevant metrics on `reg` and applies the same
// seeded mutation to both registries before each poll.  Mutations are
// sized around the rule thresholds so the campaign actually crosses them
// (both under and over).
struct CampaignDriver {
  MetricsRegistry& a;
  MetricsRegistry& b;

  void mutate(TinyRng& rng) {
    const auto both = [&](const std::string& name, std::uint64_t n) {
      a.counter(name).add(n);
      b.counter(name).add(n);
    };
    switch (rng.below(8)) {
      case 0:
        both(std::string("audit.burn.") +
                 telemetry::burn_cause_name(rng.below(telemetry::kBurnCauses)),
             rng.below(80));
        break;
      case 1:
        both("chip.decision_cycles", rng.below(120));
        both("qm.enqueued", rng.below(20));
        break;
      case 2:
        both("chip.grants", rng.below(4));
        both("qm.dequeued", rng.below(10));
        break;
      case 3:
        both("robust.retries", rng.below(48));
        break;
      case 4: {
        both("rank.pops", 150 + rng.below(200));
        both("rank.inversions", rng.below(120));
        break;
      }
      case 5: {
        const double x = 5.0 + static_cast<double>(rng.below(100));
        const std::uint64_t reps = 50 + rng.below(200);
        for (std::uint64_t i = 0; i < reps; ++i) {
          a.histogram("es.frame_delay_us", 1.0, 1e6, 64, true).observe(x);
          b.histogram("es.frame_delay_us", 1.0, 1e6, 64, true).observe(x);
        }
        break;
      }
      case 6: {
        const double x = 1000.0 + static_cast<double>(rng.below(9000));
        const std::uint64_t reps = 100 + rng.below(400);
        for (std::uint64_t i = 0; i < reps; ++i) {
          a.histogram("es.frame_delay_us", 1.0, 1e6, 64, true).observe(x);
          b.histogram("es.frame_delay_us", 1.0, 1e6, 64, true).observe(x);
        }
        break;
      }
      default:
        break;  // quiet poll
    }
  }
};

TEST(WatchdogParity, RandomCampaignsFireIdentically) {
  std::uint64_t total_firings = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MetricsRegistry reg_ref, reg_ts;
    // Pre-register the delay histogram so both sides share bin layout
    // from poll one.
    reg_ref.histogram("es.frame_delay_us", 1.0, 1e6, 64, true);
    reg_ts.histogram("es.frame_delay_us", 1.0, 1e6, 64, true);

    ReferenceWatchdog ref(reg_ref);
    Watchdog wd(reg_ts, nullptr);
    CampaignDriver drv{reg_ref, reg_ts};
    TinyRng rng{seed * 0x9E3779B97F4A7C15ULL};

    std::vector<std::pair<std::uint64_t, std::string>> real_firings;
    for (std::uint64_t poll = 1; poll <= 40; ++poll) {
      drv.mutate(rng);
      const std::optional<std::string> want = ref.evaluate_once();
      const std::optional<std::string> got = wd.evaluate_once();
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed " << seed << " poll " << poll << " diverged: ref="
          << (want ? *want : "-") << " ts=" << (got ? *got : "-");
      if (got.has_value()) {
        EXPECT_EQ(*got, *want) << "seed " << seed << " poll " << poll;
        real_firings.emplace_back(poll, *got);
      }
    }
    ASSERT_EQ(real_firings.size(), ref.firings().size()) << "seed " << seed;
    for (std::size_t i = 0; i < real_firings.size(); ++i) {
      EXPECT_EQ(real_firings[i].first, ref.firings()[i].poll)
          << "seed " << seed << " firing " << i;
      EXPECT_EQ(real_firings[i].second, ref.firings()[i].rule)
          << "seed " << seed << " firing " << i;
    }
    total_firings += real_firings.size();
    EXPECT_EQ(wd.polls(), 40u);
  }
  // A campaign that never fires proves nothing — the mutation schedule
  // must actually cross thresholds.
  EXPECT_GE(total_firings, 10u) << "campaign too tame to exercise parity";
}

// Context parity through the real dump path: the audit section's
// "watchdog" object the shared-backend Watchdog dumps must be
// byte-identical to the reference evaluator's context for the same
// deterministic scenario.
TEST(WatchdogParity, DumpContextMatchesReferenceByteForByte) {
  MetricsRegistry reg_ref, reg_ts;
  ReferenceWatchdog ref(reg_ref);
  telemetry::AuditSession session(8);
  Watchdog wd(reg_ts, &session);

  (void)ref.evaluate_once();
  (void)wd.evaluate_once();
  reg_ref.counter("audit.burn.lost_tiebreak").add(73);
  reg_ts.counter("audit.burn.lost_tiebreak").add(73);
  ASSERT_TRUE(ref.evaluate_once().has_value());
  ASSERT_TRUE(wd.evaluate_once().has_value());

  ASSERT_EQ(ref.firings().size(), 1u);
  const std::optional<telemetry::AuditSession::Dump> dump = session.last_dump();
  ASSERT_TRUE(dump.has_value());
  EXPECT_NE(dump->section.find("\"watchdog\":" + ref.firings()[0].context),
            std::string::npos)
      << "dump context diverged from reference: " << ref.firings()[0].context;
}

// A Watchdog sharing an externally owned TimeSeries must see samples the
// owner drives, and detach its observer cleanly at destruction (no
// firing, no crash, when the backend keeps sampling afterwards).
TEST(WatchdogParity, SharedBackendEvaluatesAndDetaches) {
  MetricsRegistry reg;
  telemetry::Counter& retries = reg.counter("robust.retries");
  TimeSeries ts(reg);
  {
    Watchdog wd(ts, nullptr);
    ts.sample_once();
    retries.add(100);
    ts.sample_once();
    EXPECT_EQ(wd.fired(), 1u);
    EXPECT_EQ(wd.last_rule(), "retry_surge");
    EXPECT_EQ(wd.polls(), 2u);
  }
  retries.add(100);
  ts.sample_once();  // observer removed: must not touch the dead watchdog
  EXPECT_EQ(ts.intervals(), 3u);
}

// ---------------------------------------------------------------------------
// TSan stress: the sampler races the threaded endsystem's producer and
// scheduler threads on the live registry.
// ---------------------------------------------------------------------------

TEST(TimeSeriesStress, SamplerRacesThreadedEndsystem) {
  telemetry::MetricsRegistry reg;
  TimeSeriesConfig cfg;
  cfg.poll_interval = std::chrono::milliseconds(1);
  TimeSeries ts(reg, cfg);

  core::ThreadedConfig tcfg;
  tcfg.chip.slots = 4;
  tcfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  tcfg.metrics = &reg;
  core::ThreadedEndsystem es(tcfg);
  for (double w : {1.0, 2.0, 3.0, 4.0}) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = w;
    es.add_stream(r);
  }

  ts.start();
  const core::ThreadedReport rep = es.run(20000);
  ts.stop();

  EXPECT_EQ(rep.frames_transmitted, 80000u);
  ASSERT_GE(ts.size(), 1u);
  // The closing sample sees the finished pipeline's totals.
  const std::vector<TsPoint> w = ts.window("qm.enqueued", ts.size());
  ASSERT_FALSE(w.empty());
  EXPECT_EQ(w.back().cum, 80000u);
  // Counters never decrease across sampled intervals (per-metric
  // monotonic snapshot contract, preserved through the rings).
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LE(w[i - 1].cum, w[i].cum) << "interval " << i;
  }
}

}  // namespace
}  // namespace ss
