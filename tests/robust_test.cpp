// robust_test.cpp — the fault plane and the recovery policy.
//
// Covers the three layers separately — the seeded FaultPlan (episode
// bounds, determinism, hard chip death), the retry/backoff policy
// (recovery within the bound, exhaustion, the health FSM) — and then the
// contract that ties them together: a GuardedScheduler under injected
// PCI/SRAM/chip faults either recovers or fails over to the software
// shadow, and the grant sequence is oracle-equivalent either way.  The
// final campaign pushes 10k+ differential decisions through fuzzed
// fault-plane scenarios and requires zero divergences and digest equality
// with the fault-free runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "robust/fault_plan.hpp"
#include "robust/guarded_scheduler.hpp"
#include "robust/health.hpp"
#include "robust/recovery.hpp"
#include "testing/differential_executor.hpp"
#include "testing/scenario.hpp"
#include "testing/trace_io.hpp"
#include "testing/workload_fuzzer.hpp"
#include "util/rng.hpp"

namespace ss::robust {
namespace {

FaultProfile profile(std::uint64_t seed) {
  FaultProfile p;
  p.seed = seed;
  return p;
}

TEST(FaultPlan, SameSeedSameFaultSequence) {
  FaultProfile p = profile(42);
  p.pci_fault_per64k = 20000;
  p.sram_fault_per64k = 10000;
  p.chip_fault_per64k = 5000;
  p.max_burst = 3;
  FaultPlan a(p), b(p);
  const hw::FaultSite sites[] = {hw::FaultSite::kPciWrite,
                                 hw::FaultSite::kSramAcquire,
                                 hw::FaultSite::kChipDecision,
                                 hw::FaultSite::kSramData};
  for (int i = 0; i < 5000; ++i) {
    const auto site = sites[i % std::size(sites)];
    const hw::FaultDecision da = a.on_transaction(site);
    const hw::FaultDecision db = b.on_transaction(site);
    ASSERT_EQ(da.fault, db.fault) << "attempt " << i;
    ASSERT_EQ(count(da.penalty), count(db.penalty));
    ASSERT_EQ(da.bit, db.bit);
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
  EXPECT_GT(a.total_injected(), 0u);
}

TEST(FaultPlan, EpisodesNeverExceedMaxBurst) {
  FaultProfile p = profile(7);
  p.pci_fault_per64k = 8000;
  p.max_burst = 3;
  FaultPlan plan(p);
  std::uint32_t run = 0;
  for (int i = 0; i < 20000; ++i) {
    if (plan.on_transaction(hw::FaultSite::kPciWrite).fault) {
      ++run;
      ASSERT_LE(run, p.max_burst) << "attempt " << i;
    } else {
      run = 0;
    }
  }
  EXPECT_GT(plan.injected(hw::FaultSite::kPciWrite), 0u);
}

TEST(FaultPlan, ZeroRatesInjectNothing) {
  FaultPlan plan(profile(99));  // all rates zero, no chip death
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(plan.on_transaction(hw::FaultSite::kPciRead).fault);
    EXPECT_FALSE(plan.on_transaction(hw::FaultSite::kChipDecision).fault);
  }
  EXPECT_EQ(plan.total_injected(), 0u);
}

TEST(FaultPlan, ChipDeathIsPermanent) {
  FaultProfile p = profile(3);
  p.chip_fail_after = 5;  // rates all zero: only the hard death fires
  FaultPlan plan(p);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(plan.on_transaction(hw::FaultSite::kChipDecision).fault)
        << "attempt " << i;
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(plan.on_transaction(hw::FaultSite::kChipDecision).fault);
  }
}

TEST(Recovery, BackoffDoublesToTheCap) {
  RecoveryConfig cfg;
  cfg.backoff_base_ns = 200;
  cfg.backoff_multiplier = 2.0;
  cfg.backoff_cap_ns = 1000;
  EXPECT_EQ(backoff_delay_ns(cfg, 0), 200u);
  EXPECT_EQ(backoff_delay_ns(cfg, 1), 400u);
  EXPECT_EQ(backoff_delay_ns(cfg, 2), 800u);
  EXPECT_EQ(backoff_delay_ns(cfg, 3), 1000u);   // capped
  EXPECT_EQ(backoff_delay_ns(cfg, 30), 1000u);  // stays capped
}

TEST(Recovery, RecoversWithinTheRetryBound) {
  RecoveryConfig cfg;
  cfg.max_retries = 8;
  RecoveryStats stats;
  int calls = 0;
  const RetryResult r =
      with_retry(cfg, stats, nullptr, nullptr, [&]() -> hw::FallibleNanos {
        ++calls;
        if (calls <= 3) return {false, Nanos{100}};  // three faults...
        return {true, Nanos{50}};                    // ...then clean
      });
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(stats.faults, 3u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
  // Elapsed = 3x100 penalty + 50 success + the three backoff delays.
  EXPECT_EQ(count(r.elapsed), 300u + 50u + stats.backoff_ns);
}

TEST(Recovery, ExhaustsAtTheRetryBound) {
  RecoveryConfig cfg;
  cfg.max_retries = 4;
  RecoveryStats stats;
  int calls = 0;
  const RetryResult r =
      with_retry(cfg, stats, nullptr, nullptr, [&]() -> hw::FallibleNanos {
        ++calls;
        return {false, Nanos{10}};
      });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(calls, 5);  // first attempt + 4 retries
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_EQ(stats.recoveries, 0u);
}

TEST(Recovery, ExhaustsAtTheDeadlineEvenWithRetriesLeft) {
  RecoveryConfig cfg;
  cfg.max_retries = 1000;
  cfg.deadline_ns = 500;
  cfg.backoff_base_ns = 0;
  RecoveryStats stats;
  int calls = 0;
  const RetryResult r =
      with_retry(cfg, stats, nullptr, nullptr, [&]() -> hw::FallibleNanos {
        ++calls;
        return {false, Nanos{200}};  // 3 attempts cross the 500 ns budget
      });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_LT(calls, 10);
}

TEST(Health, FaultDegradesCleanStreakRecovers) {
  HealthMonitor::Options opt;
  opt.clean_to_recover = 3;
  HealthMonitor hm(opt);
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  hm.on_fault();
  EXPECT_EQ(hm.state(), HealthState::kDegraded);
  hm.on_clean();
  hm.on_clean();
  hm.on_fault();  // streak resets before the third clean
  hm.on_clean();
  hm.on_clean();
  EXPECT_EQ(hm.state(), HealthState::kDegraded);
  hm.on_clean();
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
}

TEST(Health, FailoverIsSticky) {
  HealthMonitor hm;
  hm.on_fault();
  hm.on_failover();
  EXPECT_EQ(hm.state(), HealthState::kFailedOver);
  for (int i = 0; i < 100; ++i) hm.on_clean();
  EXPECT_EQ(hm.state(), HealthState::kFailedOver);
  const auto t = hm.transitions();
  hm.on_failover();  // idempotent
  EXPECT_EQ(hm.transitions(), t);
}

// Drive a guarded chip and a pristine chip through the same workload and
// return both grant logs.  `fail_at_cycle` forces failover on the guard
// before that decision cycle (SIZE_MAX = never).
struct GrantLog {
  std::vector<hw::SlotId> slots;
  std::vector<std::uint64_t> vtimes;
  std::vector<bool> met;
};

hw::ChipConfig small_chip() {
  hw::ChipConfig cc;
  cc.slots = 4;
  cc.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cc.schedule = hw::SortSchedule::kPerfectShuffle;
  return cc;
}

testing::StreamSetup setup_for(unsigned i) {
  testing::StreamSetup s;
  s.period = static_cast<std::uint16_t>(1 + i % 3);
  s.loss_num = static_cast<std::uint8_t>(i % 2);
  s.loss_den = static_cast<std::uint8_t>(2 + i % 2);
  s.droppable = (i % 2) == 0;
  s.initial_deadline = 1 + i;
  return s;
}

void append(GrantLog& log, const hw::DecisionOutcome& out) {
  for (const hw::Grant& g : out.grants) {
    log.slots.push_back(g.slot);
    log.vtimes.push_back(g.emit_vtime);
    log.met.push_back(g.met_deadline);
  }
}

TEST(GuardedScheduler, ForcedFailoverPreservesTheGrantSequence) {
  constexpr std::uint64_t kCycles = 200;
  for (const std::uint64_t fail_at : {0ull, 1ull, 37ull, 100ull}) {
    hw::SchedulerChip pristine(small_chip());
    hw::SchedulerChip chip(small_chip());
    FaultPlan plan(profile(1));
    GuardedScheduler guard(chip, &plan);
    for (unsigned i = 0; i < 4; ++i) {
      const testing::StreamSetup s = setup_for(i);
      const auto cfg = testing::to_slot_config(testing::Discipline::kDwcs, s);
      const auto spec = testing::to_stream_spec(testing::Discipline::kDwcs, s);
      pristine.load_slot(static_cast<hw::SlotId>(i), cfg);
      guard.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
    }
    GrantLog want, got;
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      if (c == fail_at) guard.force_failover();
      // Identical arrival pattern on both paths, stamped at each fabric's
      // own vtime (they advance in lockstep).
      for (unsigned i = 0; i < 4; ++i) {
        if ((c + i) % (2 + i) != 0) continue;
        pristine.push_request(static_cast<hw::SlotId>(i));
        guard.push_request(static_cast<hw::SlotId>(i), guard.vtime());
      }
      append(want, pristine.run_decision_cycle());
      append(got, guard.run_decision_cycle());
    }
    ASSERT_EQ(got.slots, want.slots) << "failover at cycle " << fail_at;
    EXPECT_EQ(got.vtimes, want.vtimes) << "failover at cycle " << fail_at;
    EXPECT_EQ(got.met, want.met) << "failover at cycle " << fail_at;
    EXPECT_TRUE(guard.failed_over());
    EXPECT_EQ(guard.health(), HealthState::kFailedOver);
    EXPECT_EQ(guard.vtime(), pristine.vtime());
    for (unsigned i = 0; i < 4; ++i) {
      EXPECT_EQ(guard.backlog(i), pristine.slot(i).backlog())
          << "slot " << i << " failover at " << fail_at;
    }
  }
}

TEST(GuardedScheduler, WithoutAFaultPlanIsThePlainChip) {
  constexpr std::uint64_t kCycles = 200;
  hw::SchedulerChip pristine(small_chip());
  hw::SchedulerChip chip(small_chip());
  GuardedScheduler guard(chip, nullptr);
  for (unsigned i = 0; i < 4; ++i) {
    const testing::StreamSetup s = setup_for(i);
    const auto cfg = testing::to_slot_config(testing::Discipline::kDwcs, s);
    const auto spec = testing::to_stream_spec(testing::Discipline::kDwcs, s);
    pristine.load_slot(static_cast<hw::SlotId>(i), cfg);
    guard.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
  }
  GrantLog want, got;
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    for (unsigned i = 0; i < 4; ++i) {
      if ((c + i) % (2 + i) != 0) continue;
      pristine.push_request(static_cast<hw::SlotId>(i));
      guard.push_request(static_cast<hw::SlotId>(i), guard.vtime());
    }
    append(want, pristine.run_decision_cycle());
    append(got, guard.run_decision_cycle());
  }
  ASSERT_EQ(got.slots, want.slots);
  EXPECT_EQ(got.vtimes, want.vtimes);
  EXPECT_EQ(got.met, want.met);
  EXPECT_EQ(guard.vtime(), pristine.vtime());
  EXPECT_EQ(guard.decision_cycles(), pristine.decision_cycles());
  for (unsigned i = 0; i < 4; ++i) {
    const hw::SlotCounters& c = pristine.slot(i).counters();
    EXPECT_EQ(guard.counters(i),
              (dwcs::StreamCounters{c.missed_deadlines, c.violations,
                                    c.serviced, c.late_transmissions,
                                    c.winner_cycles}))
        << "slot " << i;
    EXPECT_EQ(guard.backlog(i), pristine.slot(i).backlog()) << "slot " << i;
  }

  // No plan, no shadow: there is nothing to fail over to, and the refused
  // failover leaves the guard on the chip.
  EXPECT_THROW(guard.force_failover(), std::logic_error);
  EXPECT_FALSE(guard.failed_over());
  for (unsigned i = 0; i < 4; ++i) {
    pristine.push_request(static_cast<hw::SlotId>(i));
    guard.push_request(static_cast<hw::SlotId>(i), guard.vtime());
  }
  GrantLog want_next, got_next;
  append(want_next, pristine.run_decision_cycle());
  append(got_next, guard.run_decision_cycle());
  EXPECT_EQ(got_next.slots, want_next.slots);
  EXPECT_EQ(got_next.vtimes, want_next.vtimes);
  EXPECT_EQ(got_next.met, want_next.met);
  EXPECT_EQ(guard.vtime(), pristine.vtime());
}

TEST(GuardedScheduler, ChipDeathExhaustsRetriesAndFailsOver) {
  FaultProfile p = profile(11);
  p.chip_fail_after = 25;  // the chip dies mid-run, permanently
  FaultPlan plan(p);

  hw::SchedulerChip pristine(small_chip());
  hw::SchedulerChip chip(small_chip());
  GuardedScheduler guard(chip, &plan);
  for (unsigned i = 0; i < 4; ++i) {
    const testing::StreamSetup s = setup_for(i);
    const auto cfg = testing::to_slot_config(testing::Discipline::kDwcs, s);
    const auto spec = testing::to_stream_spec(testing::Discipline::kDwcs, s);
    pristine.load_slot(static_cast<hw::SlotId>(i), cfg);
    guard.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
  }
  GrantLog want, got;
  for (std::uint64_t c = 0; c < 120; ++c) {
    for (unsigned i = 0; i < 4; ++i) {
      if ((c + i) % 3 != 0) continue;
      pristine.push_request(static_cast<hw::SlotId>(i));
      guard.push_request(static_cast<hw::SlotId>(i), guard.vtime());
    }
    append(want, pristine.run_decision_cycle());
    append(got, guard.run_decision_cycle());
  }
  EXPECT_TRUE(guard.failed_over());
  EXPECT_GE(guard.stats().exhausted, 1u);
  EXPECT_GE(guard.stats().failovers, 1u);
  EXPECT_GT(guard.stats().faults, 0u);
  ASSERT_EQ(got.slots, want.slots);
  EXPECT_EQ(got.vtimes, want.vtimes);
  EXPECT_EQ(got.met, want.met);
  EXPECT_GT(count(guard.overhead_ns()), 0u);
}

// push_requests(s, a, n) is n push_request calls with one stamp: only a
// request into an idle slot latches its arrival.  Two guards with
// fault-free plans (so each keeps its lockstep shadow), one fed bulk
// pushes and one the same requests one at a time, must agree on every
// decision: grants (slot, emit time, deadline met), drops, every slot's
// counters and backlog, and the chip's whole block.  Halfway through both
// fail over, so the shadow's bulk push is checked the same way.
TEST(GuardedScheduler, BulkPushEqualsOneByOnePushes) {
  struct Mode {
    bool block;
    unsigned depth;
  };
  for (const Mode m : {Mode{false, 0}, Mode{true, 0}, Mode{true, 1},
                       Mode{true, 4}}) {
    hw::ChipConfig cc = small_chip();
    cc.slots = 8;
    cc.block_mode = m.block;
    cc.batch_depth = m.depth;
    hw::SchedulerChip bulk_chip(cc), one_chip(cc);
    FaultPlan bulk_plan(profile(1)), one_plan(profile(1));
    GuardedScheduler bulk(bulk_chip, &bulk_plan), one(one_chip, &one_plan);
    for (unsigned i = 0; i < cc.slots; ++i) {
      const testing::StreamSetup s = setup_for(i);
      const auto cfg = testing::to_slot_config(testing::Discipline::kDwcs, s);
      const auto spec = testing::to_stream_spec(testing::Discipline::kDwcs, s);
      bulk.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
      one.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
    }
    Rng rng(1000 + m.depth + (m.block ? 10 : 0));
    hw::DecisionOutcome a, b;
    constexpr int kCycles = 4000;
    for (int c = 0; c < kCycles; ++c) {
      if (c == kCycles / 2) {
        bulk.force_failover();
        one.force_failover();
      }
      for (unsigned i = 0; i < cc.slots; ++i) {
        const auto slot = static_cast<hw::SlotId>(i);
        const auto n =
            static_cast<std::uint32_t>(rng.chance(0.3) ? rng.below(4) : 0);
        const std::uint64_t stamp = bulk.vtime() + rng.below(8);
        bulk.push_requests(slot, stamp, n);
        for (std::uint32_t j = 0; j < n; ++j) one.push_request(slot, stamp);
      }
      bulk.run_decision_cycle(a);
      one.run_decision_cycle(b);
      const std::string at = "block " + std::to_string(m.block) + " depth " +
                             std::to_string(m.depth) + " decision " +
                             std::to_string(c);
      ASSERT_EQ(a.idle, b.idle) << at;
      ASSERT_EQ(a.grants.size(), b.grants.size()) << at;
      for (std::size_t g = 0; g < a.grants.size(); ++g) {
        ASSERT_EQ(a.grants[g].slot, b.grants[g].slot) << at;
        ASSERT_EQ(a.grants[g].emit_vtime, b.grants[g].emit_vtime) << at;
        ASSERT_EQ(a.grants[g].met_deadline, b.grants[g].met_deadline) << at;
      }
      ASSERT_EQ(a.block, b.block) << at;
      ASSERT_EQ(a.drops, b.drops) << at;
      ASSERT_EQ(bulk_chip.last_block(), one_chip.last_block()) << at;
      for (unsigned i = 0; i < cc.slots; ++i) {
        ASSERT_EQ(bulk.counters(i), one.counters(i)) << at << " slot " << i;
        ASSERT_EQ(bulk.backlog(i), one.backlog(i)) << at << " slot " << i;
      }
    }
    EXPECT_TRUE(bulk.failed_over());
  }
}

TEST(GuardedScheduler, TransientStallsRecoverWithoutFailover) {
  FaultProfile p = profile(5);
  p.chip_fault_per64k = 6000;  // ~9% of decision attempts stall...
  p.max_burst = 2;             // ...in episodes the retry bound covers
  FaultPlan plan(p);

  hw::SchedulerChip pristine(small_chip());
  hw::SchedulerChip chip(small_chip());
  GuardedScheduler guard(chip, &plan);
  for (unsigned i = 0; i < 4; ++i) {
    const testing::StreamSetup s = setup_for(i);
    const auto cfg = testing::to_slot_config(testing::Discipline::kDwcs, s);
    const auto spec = testing::to_stream_spec(testing::Discipline::kDwcs, s);
    pristine.load_slot(static_cast<hw::SlotId>(i), cfg);
    guard.load_slot(static_cast<hw::SlotId>(i), cfg, spec);
  }
  GrantLog want, got;
  for (std::uint64_t c = 0; c < 300; ++c) {
    for (unsigned i = 0; i < 4; ++i) {
      if ((c + i) % 2 != 0) continue;
      pristine.push_request(static_cast<hw::SlotId>(i));
      guard.push_request(static_cast<hw::SlotId>(i), guard.vtime());
    }
    append(want, pristine.run_decision_cycle());
    append(got, guard.run_decision_cycle());
  }
  EXPECT_FALSE(guard.failed_over());
  EXPECT_GT(guard.stats().faults, 0u);
  EXPECT_GT(guard.stats().recoveries, 0u);
  EXPECT_EQ(guard.stats().exhausted, 0u);
  ASSERT_EQ(got.slots, want.slots);
  EXPECT_EQ(got.vtimes, want.vtimes);
  EXPECT_EQ(got.met, want.met);
}

// The faults record is optional in the ssfuzz-v1 format and the default
// fuzzer options never emit it, so the generic round-trip suite cannot
// cover it: a faulted scenario must serialize, parse back to an equal
// profile, and replay to the identical fault sequence.
TEST(FaultCampaign, FaultedScenariosRoundTripThroughTheTraceFormat) {
  testing::WorkloadFuzzer::Options opt;
  opt.seed = 77;
  opt.events_per_scenario = 50;
  opt.fault_probability = 1.0;
  testing::WorkloadFuzzer fuzz(opt);
  const testing::DifferentialExecutor ex;
  for (int k = 0; k < 8; ++k) {
    const testing::Scenario sc = fuzz.next();
    ASSERT_TRUE(sc.faults.enabled());
    const testing::TraceFile tf =
        testing::parse_string(testing::serialize(sc, std::nullopt));
    ASSERT_EQ(tf.scenario.faults, sc.faults) << "scenario " << k;
    const testing::RunResult a = ex.run(sc);
    const testing::RunResult b = ex.run(tf.scenario);
    EXPECT_EQ(a.digest, b.digest) << "scenario " << k;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << "scenario " << k;
  }
}

// --- the acceptance campaign ---------------------------------------------
// 10k+ differential decisions under fuzzed fault planes: every fault
// recovers within the retry bound or fails over, the chip/oracle diff
// stays clean throughout, and each faulted digest equals the fault-free
// digest of the same scenario.
TEST(FaultCampaign, TenThousandDecisionsUnderFaultsStayOracleEquivalent) {
  testing::WorkloadFuzzer::Options opt;
  opt.seed = 20030406;
  opt.events_per_scenario = 400;
  opt.fault_probability = 1.0;
  testing::WorkloadFuzzer fuzz(opt);
  const testing::DifferentialExecutor ex;

  std::uint64_t decisions = 0, faults = 0, failovers = 0, recoveries = 0;
  int scenarios = 0;
  while (decisions < 10000) {
    const testing::Scenario sc = fuzz.next();
    const testing::RunResult r = ex.run(sc);
    ASSERT_FALSE(r.diverged)
        << "scenario " << scenarios << " diverged at event " << r.event_index
        << ": " << r.detail << '\n'
        << testing::serialize(sc);
    // The schedule must be fault-invariant: strip the fault plane and the
    // digest must not move.
    testing::Scenario clean = sc;
    clean.faults = FaultProfile{};
    const testing::RunResult cr = ex.run(clean);
    ASSERT_FALSE(cr.diverged);
    ASSERT_EQ(r.digest, cr.digest)
        << "fault plane changed the schedule of scenario " << scenarios
        << '\n' << testing::serialize(sc);
    decisions += r.decisions;
    faults += r.faults_injected;
    failovers += r.robust.failovers;
    recoveries += r.robust.recoveries;
    // Exhaustion is never silent: it always lands the run on the
    // software path.
    if (r.robust.exhausted > 0) {
      ASSERT_TRUE(r.failed_over)
          << "retry exhaustion without failover in scenario " << scenarios;
    }
    ++scenarios;
  }
  EXPECT_GT(faults, 0u) << "campaign injected no faults";
  EXPECT_GT(recoveries, 0u) << "no fault ever recovered";
  EXPECT_GT(failovers, 0u) << "no scenario exercised the failover seam";
}

}  // namespace
}  // namespace ss::robust
