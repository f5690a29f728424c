// sampler_test.cpp — the deterministic per-N decision sampler and the
// sampling-soundness contract.
//
// Unit half (SamplerGrid/SamplerForce/SamplerScale): the grid is
// deterministic (decision k sampled iff k ≡ phase mod N), the phase is a
// seeded function so fleet members decorrelate, force_next() overrides
// exactly one tick, and scale() is the estimate multiplier.
//
// Campaign half (SamplingSoundness): the reason sampling is safe to leave
// on in production, stated over a >=100k-decision fuzz campaign —
//   * winners are bit-identical whether the audit is detached, sampling
//     every decision, or sampling 1-in-64 (the sampler gates observation,
//     never arbitration);
//   * the exact counters (total comparisons, violations, per-cause burns)
//     agree to the unit at every rate, and at every rate each scenario's
//     violations equal the ones the chip's Register Base blocks counted;
//   * the sampled per-rule profile converges to the full profile's rule
//     shares, so the scaled estimates in the v2 export are trustworthy.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "telemetry/audit.hpp"
#include "telemetry/sampler.hpp"
#include "testing/differential_executor.hpp"
#include "testing/workload_fuzzer.hpp"

namespace ss {
namespace {

using telemetry::DecisionSampler;

TEST(SamplerGrid, DefaultSamplesEveryDecision) {
  DecisionSampler s;
  EXPECT_EQ(s.every(), 1u);
  EXPECT_EQ(s.phase(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(s.tick());
  EXPECT_EQ(s.decisions(), 100u);
  EXPECT_EQ(s.sampled(), 100u);
  EXPECT_EQ(s.forced(), 0u);
  EXPECT_DOUBLE_EQ(s.scale(), 1.0);
}

TEST(SamplerGrid, OneInNIsAPhasedComb) {
  DecisionSampler s(8, 7);
  ASSERT_LT(s.phase(), 8u);
  const std::uint32_t phase = s.phase();
  for (std::uint32_t k = 0; k < 800; ++k) {
    EXPECT_EQ(s.tick(), k % 8 == phase) << "tick " << k;
  }
  EXPECT_EQ(s.decisions(), 800u);
  EXPECT_EQ(s.sampled(), 100u);
  EXPECT_DOUBLE_EQ(s.scale(), 8.0);
}

TEST(SamplerGrid, SameConfigSameGrid) {
  DecisionSampler a(64, 12345);
  DecisionSampler b(64, 12345);
  EXPECT_EQ(a.phase(), b.phase());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.tick(), b.tick()) << "grids diverged at tick " << i;
  }
}

// The phase is a splitmix of the seed, not the seed itself: distinct seeds
// land on distinct grid offsets, so a fleet sampling the same periodic
// workload does not sample the same decisions everywhere.
TEST(SamplerGrid, SeedDecorrelatesPhase) {
  std::set<std::uint32_t> phases;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    DecisionSampler s(64, seed);
    EXPECT_LT(s.phase(), 64u);
    phases.insert(s.phase());
  }
  EXPECT_GE(phases.size(), 8u) << "32 seeds collapsed onto too few phases";
}

TEST(SamplerGrid, ConfigureRestartsGridKeepsCounters) {
  DecisionSampler s(4, 0);
  for (int i = 0; i < 10; ++i) (void)s.tick();
  EXPECT_EQ(s.decisions(), 10u);
  s.configure(2, 0);
  EXPECT_EQ(s.every(), 2u);
  EXPECT_EQ(s.decisions(), 10u) << "configure must not reset the counters";
  for (int i = 0; i < 10; ++i) (void)s.tick();
  EXPECT_EQ(s.decisions(), 20u);
}

TEST(SamplerForce, OverrideSamplesExactlyOneOffGridTick) {
  // Pick a seed whose phase is >= 2 so the forced tick (position 1) is
  // provably off the grid.
  DecisionSampler s(64, 0);
  std::uint64_t seed = 0;
  while (s.phase() < 2) {
    ++seed;
    ASSERT_LT(seed, 100u) << "no phase >= 2 in 100 seeds?";
    s.configure(64, seed);
  }
  EXPECT_FALSE(s.tick()) << "position 0 is off-grid for phase >= 2";
  s.force_next();
  EXPECT_TRUE(s.tick()) << "armed override must sample";
  EXPECT_EQ(s.forced(), 1u);
  // One-shot: the grid resumes, untouched by the override.
  const std::uint32_t phase = s.phase();
  for (std::uint32_t k = 2; k < 64; ++k) {
    EXPECT_EQ(s.tick(), k == phase) << "tick " << k;
  }
  EXPECT_EQ(s.forced(), 1u);
  EXPECT_EQ(s.sampled(), 2u) << "one forced + one grid hit in the cycle";
}

TEST(SamplerScale, EstimatesInverseSampleRate) {
  DecisionSampler s(10, 3);
  for (int i = 0; i < 1000; ++i) (void)s.tick();
  EXPECT_EQ(s.sampled(), 100u);
  EXPECT_DOUBLE_EQ(s.scale(), 10.0);
}

// ---------------------------------------------------------------------------
// The soundness campaign: observation-only at every rate, exact counters
// exact, sampled profile convergent.

TEST(SamplingSoundness, WinnersAndExactCountersAcrossRates100k) {
  using namespace ss::testing;
  WorkloadFuzzer::Options fo;
  fo.seed = 20260806;
  fo.events_per_scenario = 800;
  WorkloadFuzzer plain_fuzzer(fo);
  WorkloadFuzzer full_fuzzer(fo);
  WorkloadFuzzer sampled_fuzzer(fo);  // same seed: identical scenarios

  const DifferentialExecutor plain;

  telemetry::AuditSession full_session(telemetry::kAuditMaxStreams);
  DifferentialExecutor::Options full_opt;
  full_opt.audit = &full_session;
  const DifferentialExecutor full(full_opt);

  telemetry::AuditSession sampled_session(telemetry::kAuditMaxStreams);
  sampled_session.set_sampling(64, 20260809);
  DifferentialExecutor::Options sampled_opt;
  sampled_opt.audit = &sampled_session;
  const DifferentialExecutor sampled(sampled_opt);

  // The audit hears every violation the chip commits, at every rate: per
  // scenario, each stream's audited violations grow by exactly the chip's
  // own per-slot count.  `seen` holds a session's totals before the run.
  using PerStream = std::array<std::uint64_t, telemetry::kAuditMaxStreams>;
  PerStream full_seen{}, sampled_seen{};
  const auto expect_chip_violations = [](const telemetry::AuditSession& ses,
                                         PerStream& seen, const RunResult& r,
                                         int scenario) {
    for (std::uint32_t s = 0; s < telemetry::kAuditMaxStreams; ++s) {
      const std::uint64_t v = ses.audit().violations(s);
      EXPECT_EQ(v - seen[s], r.chip_violations[s])
          << "scenario " << scenario << " stream " << s << " every "
          << ses.sampler().every();
      seen[s] = v;
    }
  };

  std::uint64_t decisions = 0;
  std::uint64_t chip_violations = 0;
  int k = 0;
  while (decisions < 100000) {
    ASSERT_LT(k, 2000) << "campaign failed to reach 100k decisions";
    const Scenario a = plain_fuzzer.next();
    const Scenario b = full_fuzzer.next();
    const Scenario c = sampled_fuzzer.next();
    ASSERT_EQ(a, b) << "fuzzer determinism broke at scenario " << k;
    ASSERT_EQ(a, c) << "fuzzer determinism broke at scenario " << k;
    const RunResult ra = plain.run(a);
    const RunResult rb = full.run(b);
    const RunResult rc = sampled.run(c);
    ASSERT_FALSE(ra.diverged) << ra.detail;
    ASSERT_FALSE(rb.diverged) << rb.detail;
    ASSERT_FALSE(rc.diverged) << rc.detail;
    ASSERT_EQ(ra.digest, rb.digest)
        << "full auditing changed the schedule in scenario " << k;
    ASSERT_EQ(ra.digest, rc.digest)
        << "1-in-64 sampling changed the schedule in scenario " << k;
    expect_chip_violations(full_session, full_seen, rb, k);
    expect_chip_violations(sampled_session, sampled_seen, rc, k);
    for (const std::uint64_t v : rb.chip_violations) chip_violations += v;
    decisions += ra.decisions;
    ++k;
  }
  EXPECT_GT(chip_violations, 0u) << "the campaign never violated a window";

  const telemetry::DecisionAudit& fa = full_session.audit();
  const telemetry::DecisionAudit& sa = sampled_session.audit();

  // Exact counters are exact at every rate: the total comparison count,
  // per-stream violations and every per-cause burn agree to the unit.
  EXPECT_GT(fa.comparisons(), 0u);
  EXPECT_EQ(fa.comparisons(), sa.comparisons());
  for (std::uint32_t s = 0; s < telemetry::kAuditMaxStreams; ++s) {
    EXPECT_EQ(fa.violations(s), sa.violations(s)) << "stream " << s;
    for (std::size_t c = 0; c < telemetry::kBurnCauses; ++c) {
      EXPECT_EQ(fa.burn(s, c), sa.burn(s, c))
          << "stream " << s << " cause " << telemetry::burn_cause_name(c);
    }
  }

  // The sampler actually thinned the expensive path.  (It ticks only on
  // committed non-idle decisions, so its count sits below the campaign's
  // compared-cycle total, which includes idle decides.)
  const DecisionSampler& sam = sampled_session.sampler();
  EXPECT_GE(sam.decisions(), 50000u);
  EXPECT_LE(sam.decisions(), decisions);
  EXPECT_LT(sa.comparisons_sampled(), sa.comparisons());
  EXPECT_GE(sam.sampled(), sam.decisions() / 64)
      << "the grid alone guarantees 1-in-64";
  EXPECT_GT(sam.scale(), 1.0);
  EXPECT_LE(sam.scale(), 64.0);
  // Full-rate session: nothing was thinned.
  EXPECT_EQ(fa.comparisons_sampled(), fa.comparisons());

  // Per-rule share convergence: the sampled profile's rule mix estimates
  // the full profile's within 10 points per rule, so the scaled rules_est
  // block in the v2 export is a faithful picture of the tiebreak mix.
  // The tolerance is not pure grid variance: every violation force-samples
  // the next decision, deliberately over-representing anomalous regimes in
  // the sampled profile (here that skews ~5-7 points toward the deadline
  // rule) — the estimate trades a small steady-state bias for never
  // missing the interesting tail.
  std::uint64_t full_total = 0;
  std::uint64_t samp_total = 0;
  for (std::size_t r = 0; r < telemetry::kAuditRules; ++r) {
    full_total += fa.rule_total(r);
    samp_total += sa.rule_total(r);
  }
  ASSERT_GT(full_total, 0u);
  ASSERT_GT(samp_total, 1000u) << "too few sampled comparisons to converge";
  for (std::size_t r = 0; r < telemetry::kAuditRules; ++r) {
    const double full_share =
        static_cast<double>(fa.rule_total(r)) / static_cast<double>(full_total);
    const double samp_share =
        static_cast<double>(sa.rule_total(r)) / static_cast<double>(samp_total);
    EXPECT_NEAR(samp_share, full_share, 0.10)
        << "rule " << telemetry::audit_rule_name(r)
        << " share did not converge (full " << full_share << " sampled "
        << samp_share << ")";
  }
}

}  // namespace
}  // namespace ss
