// crosscheck_test.cpp — THE central correctness test of the repository.
//
// The cycle-level FPGA simulation (ss_hw::SchedulerChip) and the
// independently written software reference scheduler (ss_dwcs::
// ReferenceScheduler) implement the same ShareStreams-DWCS semantics.
// Feeding both the identical randomized workload must produce identical
// decisions: same idle flags, same grant sequences (stream, emission time,
// deadline verdict), same circulated IDs, same drops, and identical
// per-stream counters at the end.
//
// Block-mode runs use the bitonic schedule on the chip (a full sorting
// network) so the hardware block order is the oracle's total order; WR
// runs additionally use the paper's log2(N) shuffle schedule, whose
// winner the tournament property pins to the true maximum.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dwcs/reference_scheduler.hpp"
#include "hw/scheduler_chip.hpp"
#include "util/rng.hpp"

namespace ss {
namespace {

struct CaseCfg {
  unsigned slots;
  bool block;
  bool min_first;
  bool dwcs_full;  // else EDF comparison
  hw::SortSchedule schedule;
};

class CrossCheck : public ::testing::TestWithParam<CaseCfg> {};

TEST_P(CrossCheck, ChipMatchesOracleOverRandomWorkload) {
  const CaseCfg cfg = GetParam();

  hw::ChipConfig hc;
  hc.slots = cfg.slots;
  hc.cmp_mode = cfg.dwcs_full ? hw::ComparisonMode::kDwcsFull
                              : hw::ComparisonMode::kTagOnly;
  hc.block_mode = cfg.block;
  hc.min_first = cfg.min_first;
  hc.schedule = cfg.schedule;
  hw::SchedulerChip chip(hc);

  dwcs::ReferenceScheduler::Options so;
  so.block_mode = cfg.block;
  so.min_first = cfg.min_first;
  so.edf_comparison = !cfg.dwcs_full;
  dwcs::ReferenceScheduler oracle(so);

  Rng rng(1000 + cfg.slots + (cfg.block ? 7 : 0) + (cfg.min_first ? 3 : 0) +
          (cfg.dwcs_full ? 13 : 0));

  // Identical stream setups.
  for (unsigned i = 0; i < cfg.slots; ++i) {
    const auto period = static_cast<std::uint16_t>(1 + rng.below(6));
    const auto x = static_cast<std::uint8_t>(rng.below(3));
    const auto y = static_cast<std::uint8_t>(x + 1 + rng.below(3));
    const bool droppable = rng.chance(0.5);
    const std::uint64_t dl0 = 1 + rng.below(10);

    hw::SlotConfig sc;
    sc.mode = cfg.dwcs_full ? hw::SlotMode::kDwcs : hw::SlotMode::kEdf;
    sc.period = period;
    sc.loss_num = x;
    sc.loss_den = y;
    sc.droppable = droppable;
    sc.initial_deadline = hw::Deadline{dl0};
    chip.load_slot(static_cast<hw::SlotId>(i), sc);

    dwcs::StreamSpec ss;
    ss.mode = cfg.dwcs_full ? dwcs::StreamMode::kDwcs : dwcs::StreamMode::kEdf;
    ss.period = period;
    ss.loss_num = x;
    ss.loss_den = y;
    ss.droppable = droppable;
    ss.initial_deadline = dl0;
    oracle.add_stream(ss);
  }

  // Randomized request feed + lock-step decisions.  Virtual time must stay
  // inside the 16-bit serial horizon (a non-droppable slot's deadline can
  // lag arbitrarily while droppable ones track vtime, and the hardware's
  // 16-bit comparator inverts beyond a 32768 spread — real-hardware
  // behaviour the 64-bit oracle cannot mimic), so cap block runs.
  const int kCycles = cfg.block
                          ? static_cast<int>(std::min(1200u, 28000u / cfg.slots))
                          : 1200;
  for (int k = 0; k < kCycles; ++k) {
    for (unsigned i = 0; i < cfg.slots; ++i) {
      if (rng.chance(0.55)) {
        const std::uint64_t arr = chip.vtime();
        chip.push_request(static_cast<hw::SlotId>(i), hw::Arrival{arr});
        oracle.push_request(i, arr);
      }
    }
    const hw::DecisionOutcome h = chip.run_decision_cycle();
    const dwcs::SwDecision s = oracle.run_decision_cycle();

    ASSERT_EQ(h.idle, s.idle) << "cycle " << k;
    ASSERT_EQ(h.grants.size(), s.grants.size()) << "cycle " << k;
    for (std::size_t g = 0; g < h.grants.size(); ++g) {
      ASSERT_EQ(h.grants[g].slot, s.grants[g].stream)
          << "cycle " << k << " grant " << g;
      ASSERT_EQ(h.grants[g].emit_vtime, s.grants[g].emit_vtime)
          << "cycle " << k << " grant " << g;
      ASSERT_EQ(h.grants[g].met_deadline, s.grants[g].met_deadline)
          << "cycle " << k << " grant " << g;
    }
    if (h.circulated || s.circulated) {
      ASSERT_TRUE(h.circulated && s.circulated) << "cycle " << k;
      ASSERT_EQ(static_cast<std::uint32_t>(*h.circulated), *s.circulated)
          << "cycle " << k;
    }
    ASSERT_EQ(h.drops.size(), s.drops.size()) << "cycle " << k;
    for (std::size_t d = 0; d < h.drops.size(); ++d) {
      ASSERT_EQ(static_cast<std::uint32_t>(h.drops[d]), s.drops[d]);
    }
    ASSERT_EQ(chip.vtime(), oracle.vtime()) << "cycle " << k;
  }

  // Final counters must agree exactly.
  for (unsigned i = 0; i < cfg.slots; ++i) {
    const auto& hcnt = chip.slot(static_cast<hw::SlotId>(i)).counters();
    const auto& scnt = oracle.stream(i).counters;
    EXPECT_EQ(hcnt.serviced, scnt.serviced) << "stream " << i;
    EXPECT_EQ(hcnt.missed_deadlines, scnt.missed_deadlines) << "stream " << i;
    EXPECT_EQ(hcnt.late_transmissions, scnt.late_transmissions)
        << "stream " << i;
    EXPECT_EQ(hcnt.winner_cycles, scnt.winner_cycles) << "stream " << i;
    EXPECT_EQ(hcnt.violations, scnt.violations) << "stream " << i;
    EXPECT_EQ(chip.slot(static_cast<hw::SlotId>(i)).backlog(),
              oracle.stream(i).backlog)
        << "stream " << i;
  }
}

// Static-priority mapping: pinned deadlines, level in the rule-3 field,
// no updates.  The chip runs ComparisonMode::kStatic; the oracle's full
// ordering reduces to the same comparison when deadlines are pinned equal
// and x' = 0 (rule 3 orders by denominator).
TEST(CrossCheckModes, StaticPriorityChipMatchesOracle) {
  hw::ChipConfig hc;
  hc.slots = 8;
  hc.cmp_mode = hw::ComparisonMode::kStatic;
  hw::SchedulerChip chip(hc);
  dwcs::ReferenceScheduler oracle;  // full ordering
  Rng rng(4242);
  for (unsigned i = 0; i < 8; ++i) {
    const auto level = static_cast<std::uint8_t>(1 + rng.below(6));
    hw::SlotConfig sc;
    sc.mode = hw::SlotMode::kStaticPrio;
    sc.period = 0;
    sc.loss_num = 0;
    sc.loss_den = level;
    sc.initial_deadline = hw::Deadline{0};
    chip.load_slot(static_cast<hw::SlotId>(i), sc);
    dwcs::StreamSpec ss;
    ss.mode = dwcs::StreamMode::kStaticPrio;
    ss.period = 0;
    ss.loss_num = 0;
    ss.loss_den = level;
    ss.initial_deadline = 0;
    oracle.add_stream(ss);
  }
  for (int k = 0; k < 1500; ++k) {
    for (unsigned i = 0; i < 8; ++i) {
      if (rng.chance(0.4)) {
        const std::uint64_t arr = chip.vtime();
        chip.push_request(static_cast<hw::SlotId>(i), hw::Arrival{arr});
        oracle.push_request(i, arr);
      }
    }
    const auto h = chip.run_decision_cycle();
    const auto s = oracle.run_decision_cycle();
    ASSERT_EQ(h.idle, s.idle) << k;
    if (!h.idle) {
      ASSERT_EQ(h.grants.size(), 1u);
      ASSERT_EQ(static_cast<std::uint32_t>(h.grants[0].slot),
                s.grants[0].stream)
          << k;
    }
  }
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(chip.slot(static_cast<hw::SlotId>(i)).counters().serviced,
              oracle.stream(i).counters.serviced);
  }
}

// Fair-queuing service-tag mapping: per-packet tags, bypassed update.
TEST(CrossCheckModes, FairTagChipMatchesOracle) {
  hw::ChipConfig hc;
  hc.slots = 4;
  hc.cmp_mode = hw::ComparisonMode::kTagOnly;
  hc.timing.bypass_update = true;
  hw::SchedulerChip chip(hc);
  dwcs::ReferenceScheduler::Options so;
  so.edf_comparison = true;
  dwcs::ReferenceScheduler oracle(so);
  for (unsigned i = 0; i < 4; ++i) {
    hw::SlotConfig sc;
    sc.mode = hw::SlotMode::kFairTag;
    sc.period = 0;
    chip.load_slot(static_cast<hw::SlotId>(i), sc);
    dwcs::StreamSpec ss;
    ss.mode = dwcs::StreamMode::kFairTag;
    ss.period = 0;
    oracle.add_stream(ss);
  }
  Rng rng(777);
  std::uint64_t vtags[4] = {0, 0, 0, 0};  // per-stream finish-tag clocks
  for (int k = 0; k < 2000; ++k) {
    for (unsigned i = 0; i < 4; ++i) {
      if (rng.chance(0.5)) {
        vtags[i] += 1 + rng.below(5);  // monotone per-stream service tags
        const std::uint64_t arr = chip.vtime();
        chip.push_tagged_request(static_cast<hw::SlotId>(i),
                                 hw::Deadline{vtags[i]}, hw::Arrival{arr});
        oracle.push_tagged_request(i, vtags[i], arr);
      }
    }
    const auto h = chip.run_decision_cycle();
    const auto s = oracle.run_decision_cycle();
    ASSERT_EQ(h.idle, s.idle) << k;
    ASSERT_EQ(h.grants.size(), s.grants.size()) << k;
    if (!h.idle) {
      ASSERT_EQ(static_cast<std::uint32_t>(h.grants[0].slot),
                s.grants[0].stream)
          << k;
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<CaseCfg>& info) {
  const CaseCfg& c = info.param;
  std::string s = "N";
  s += std::to_string(c.slots);
  s += c.block ? (c.min_first ? "_BlockMinFirst" : "_BlockMaxFirst") : "_WR";
  s += c.dwcs_full ? "_DWCS" : "_EDF";
  s += c.schedule == hw::SortSchedule::kBitonic ? "_Bitonic" : "_Shuffle";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrossCheck,
    ::testing::Values(
        // WR with the paper's shuffle schedule: winner = true max.
        CaseCfg{2, false, false, false, hw::SortSchedule::kPerfectShuffle},
        CaseCfg{4, false, false, false, hw::SortSchedule::kPerfectShuffle},
        CaseCfg{8, false, false, true, hw::SortSchedule::kPerfectShuffle},
        CaseCfg{16, false, false, true, hw::SortSchedule::kPerfectShuffle},
        CaseCfg{32, false, false, false, hw::SortSchedule::kPerfectShuffle},
        CaseCfg{32, false, false, true, hw::SortSchedule::kPerfectShuffle},
        // WR with bitonic (order identical, belt and braces).
        CaseCfg{8, false, false, false, hw::SortSchedule::kBitonic},
        // Block mode needs the full sort for order parity with the oracle.
        CaseCfg{4, true, false, false, hw::SortSchedule::kBitonic},
        CaseCfg{4, true, true, false, hw::SortSchedule::kBitonic},
        CaseCfg{8, true, false, true, hw::SortSchedule::kBitonic},
        CaseCfg{8, true, true, true, hw::SortSchedule::kBitonic},
        CaseCfg{16, true, false, true, hw::SortSchedule::kBitonic},
        CaseCfg{32, true, true, true, hw::SortSchedule::kBitonic}),
    case_name);

}  // namespace
}  // namespace ss
