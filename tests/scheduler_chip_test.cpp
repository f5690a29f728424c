// scheduler_chip_test.cpp — the assembled scheduler: winner selection,
// block emission, drops, virtual time, counters, fair-queuing tags.
#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/scheduler_chip.hpp"

namespace ss::hw {
namespace {

SlotConfig edf_slot(std::uint16_t period, std::uint64_t dl0,
                    bool droppable = true) {
  SlotConfig c;
  c.mode = SlotMode::kEdf;
  c.period = period;
  c.loss_num = 0;
  c.loss_den = 1;
  c.droppable = droppable;
  c.initial_deadline = Deadline{dl0};
  return c;
}

ChipConfig wr_config(unsigned slots,
                     ComparisonMode cmp = ComparisonMode::kTagOnly) {
  ChipConfig c;
  c.slots = slots;
  c.cmp_mode = cmp;
  c.block_mode = false;
  return c;
}

ChipConfig block_config(unsigned slots, bool min_first = false,
                        SortSchedule sched = SortSchedule::kBitonic) {
  ChipConfig c;
  c.slots = slots;
  c.cmp_mode = ComparisonMode::kTagOnly;
  c.block_mode = true;
  c.min_first = min_first;
  c.schedule = sched;
  return c;
}

TEST(SchedulerChip, RejectsSlotCountsOutsidePowersOfTwoTo32) {
  for (const unsigned slots : {0u, 1u, 3u, 6u, 64u}) {
    EXPECT_THROW(SchedulerChip chip(wr_config(slots)), std::invalid_argument)
        << slots << " slots";
  }
  for (const unsigned slots : {2u, 32u}) {
    EXPECT_NO_THROW(SchedulerChip chip(wr_config(slots))) << slots;
  }
}

TEST(SchedulerChip, IdleDecisionCycleBurnsAPacketTime) {
  SchedulerChip chip(wr_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(1, i + 1));
  const auto out = chip.run_decision_cycle();
  EXPECT_TRUE(out.idle);
  EXPECT_TRUE(out.grants.empty());
  EXPECT_EQ(chip.vtime(), 1u);
  EXPECT_EQ(chip.decision_cycles(), 1u);
}

TEST(SchedulerChip, WrPicksEarliestDeadline) {
  SchedulerChip chip(wr_config(4));
  chip.load_slot(0, edf_slot(10, 8));
  chip.load_slot(1, edf_slot(10, 3));  // earliest
  chip.load_slot(2, edf_slot(10, 5));
  chip.load_slot(3, edf_slot(10, 9));
  for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 1u);
  EXPECT_EQ(out.grants[0].slot, 1);
  EXPECT_TRUE(out.grants[0].met_deadline);
  EXPECT_EQ(*out.circulated, 1);
  EXPECT_EQ(chip.vtime(), 1u);
}

TEST(SchedulerChip, WrSkipsIdleSlots) {
  SchedulerChip chip(wr_config(4));
  chip.load_slot(0, edf_slot(10, 1));  // best deadline but idle
  chip.load_slot(1, edf_slot(10, 30));
  chip.load_slot(2, edf_slot(10, 20));
  chip.load_slot(3, edf_slot(10, 40));
  chip.push_request(2);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 1u);
  EXPECT_EQ(out.grants[0].slot, 2);
}

TEST(SchedulerChip, BlockGrantsEveryBacklogged) {
  SchedulerChip chip(block_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, i + 1));
  for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 4u);
  // Max-first: emission in priority order; deadlines 1..4 -> slots 0..3.
  EXPECT_EQ(out.grants[0].slot, 0);
  EXPECT_EQ(out.grants[1].slot, 1);
  EXPECT_EQ(out.grants[2].slot, 2);
  EXPECT_EQ(out.grants[3].slot, 3);
  // Emission occupies consecutive packet-times.
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(out.grants[i].emit_vtime, i);
  EXPECT_EQ(*out.circulated, 0);  // block head circulated
  EXPECT_EQ(chip.vtime(), 4u);    // one packet-time per granted frame
}

TEST(SchedulerChip, BlockMinFirstReversesEmissionAndCirculation) {
  SchedulerChip chip(block_config(4, /*min_first=*/true));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, i + 1));
  for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 4u);
  EXPECT_EQ(out.grants[0].slot, 3);  // tail first
  EXPECT_EQ(out.grants[3].slot, 0);  // head last -> it can go late
  EXPECT_EQ(*out.circulated, 3);
}

TEST(SchedulerChip, BlockPartialBacklogEmitsOnlyPending) {
  SchedulerChip chip(block_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, i + 1));
  chip.push_request(1);
  chip.push_request(3);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 2u);
  EXPECT_EQ(out.grants[0].slot, 1);
  EXPECT_EQ(out.grants[1].slot, 3);
  EXPECT_EQ(chip.vtime(), 2u);  // only two packet-times consumed
}

TEST(SchedulerChip, DroppableLateHeadIsReportedDropped) {
  SchedulerChip chip(wr_config(2));
  chip.load_slot(0, edf_slot(5, 1, /*droppable=*/true));
  chip.load_slot(1, edf_slot(5, 100));
  chip.push_request(0);
  chip.push_request(0);
  chip.push_request(1);
  // Cycle 1: slot 0 wins (deadline 1).  Cycle 2: slot 0's next head has
  // deadline 6, slot 1 has 100 -> slot 0 wins again... make slot 0 lose by
  // exhausting its requests and checking the drop path on slot 1 instead.
  SchedulerChip chip2(wr_config(2));
  chip2.load_slot(0, edf_slot(1, 1, true));
  chip2.load_slot(1, edf_slot(1000, 2, true));
  // Keep slot 0 permanently urgent so slot 1 starves past its deadline.
  chip2.push_request(0);
  chip2.push_request(1);
  bool saw_drop = false;
  for (int k = 0; k < 5 && !saw_drop; ++k) {
    chip2.push_request(0);  // fresh request each cycle keeps slot 0 winning
    const auto out = chip2.run_decision_cycle();
    for (const SlotId s : out.drops) {
      saw_drop = true;
      EXPECT_EQ(s, 1);
    }
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_GE(chip2.slot(1).counters().missed_deadlines, 1u);
}

TEST(SchedulerChip, NonDroppableLateHeadNeverDropsAndKeepsMissing) {
  // Overload two non-droppable streams 2:1 — the loser's backlog must
  // survive (no drops) while its miss counter keeps climbing.
  SchedulerChip chip(wr_config(2));
  chip.load_slot(0, edf_slot(1, 1, /*droppable=*/false));
  chip.load_slot(1, edf_slot(1, 1, /*droppable=*/false));
  std::uint64_t drops = 0;
  for (int k = 0; k < 40; ++k) {
    chip.push_request(0);
    chip.push_request(1);
    drops += chip.run_decision_cycle().drops.size();
  }
  EXPECT_EQ(drops, 0u);
  const auto& c0 = chip.slot(0).counters();
  const auto& c1 = chip.slot(1).counters();
  // 80 requests in, 40 serviced: 40 still backlogged.
  EXPECT_EQ(c0.serviced + c1.serviced, 40u);
  EXPECT_EQ(chip.slot(0).backlog() + chip.slot(1).backlog(), 40u);
  // 2x overload: misses accumulate steadily.
  EXPECT_GT(c0.missed_deadlines + c1.missed_deadlines, 30u);
}

TEST(SchedulerChip, ExpiredLatchHoldsAcrossTheSerialWrap) {
  // A starved non-droppable EDF head (deadline 100) stays late for 70,000
  // decisions, past the 16-bit serial wrap.  Once its deadline has passed
  // it misses exactly once per decision; without the sticky latch the
  // wrapped comparator would read "not late" for half of every wrap
  // (37,134 misses instead of 69,901).
  SchedulerChip chip(wr_config(2, ComparisonMode::kDwcsFull));
  SlotConfig prio;
  prio.mode = SlotMode::kStaticPrio;
  chip.load_slot(0, prio);  // deadline 0: beats slot 1 on rule 1 forever
  chip.load_slot(1, edf_slot(1, 100, /*droppable=*/false));
  chip.push_request(1);
  DecisionOutcome out;
  std::uint64_t wins = 0, off_pace = 0;
  for (std::uint64_t k = 0; k < 70000; ++k) {
    chip.push_request(0);
    const std::uint64_t before = chip.slot(1).counters().missed_deadlines;
    chip.run_decision_cycle(out);
    wins += out.grants.at(0).slot == 1 ? 1 : 0;
    // Decision k ends at vtime k + 1: late from k + 1 == 100 on.
    const std::uint64_t expect = k + 1 >= 100 ? 1 : 0;
    off_pace +=
        chip.slot(1).counters().missed_deadlines - before != expect ? 1 : 0;
  }
  EXPECT_EQ(wins, 0u);
  EXPECT_EQ(off_pace, 0u);
  EXPECT_EQ(chip.slot(1).counters().missed_deadlines, 69901u);
  EXPECT_EQ(chip.slot(1).backlog(), 1u);
}

TEST(SchedulerChip, HwCycleAccountingPerDecision) {
  SchedulerChip chip(wr_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(1, 1));
  chip.push_request(0);
  const auto out = chip.run_decision_cycle();
  EXPECT_EQ(out.hw_cycles, 13u);  // the calibrated 4-slot figure
  EXPECT_EQ(chip.hw_cycles(), 13u);
}

TEST(SchedulerChip, BlockModeWithShufflePaperScheduleStillFindsMax) {
  SchedulerChip chip(block_config(8, false, SortSchedule::kPerfectShuffle));
  for (unsigned i = 0; i < 8; ++i) {
    chip.load_slot(i, edf_slot(8, 20 - i));  // slot 7 most urgent
  }
  for (unsigned i = 0; i < 8; ++i) chip.push_request(i);
  const auto out = chip.run_decision_cycle();
  ASSERT_EQ(out.grants.size(), 8u);
  EXPECT_EQ(out.grants[0].slot, 7);  // tournament property holds
  EXPECT_EQ(*out.circulated, 7);
}

TEST(SchedulerChip, FairTagSlotsFollowPushedTags) {
  ChipConfig cfg = wr_config(2, ComparisonMode::kTagOnly);
  cfg.timing.bypass_update = true;  // fair-queuing mapping
  SchedulerChip chip(cfg);
  SlotConfig fair;
  fair.mode = SlotMode::kFairTag;
  fair.period = 0;
  chip.load_slot(0, fair);
  chip.load_slot(1, fair);
  // Stream 0 tags: 10, 30; stream 1 tags: 20, 25.
  chip.push_tagged_request(0, Deadline{10}, Arrival{0});
  chip.push_tagged_request(0, Deadline{30}, Arrival{0});
  chip.push_tagged_request(1, Deadline{20}, Arrival{0});
  chip.push_tagged_request(1, Deadline{25}, Arrival{0});
  std::vector<SlotId> order;
  for (int i = 0; i < 4; ++i) {
    const auto out = chip.run_decision_cycle();
    ASSERT_EQ(out.grants.size(), 1u);
    order.push_back(out.grants[0].slot);
  }
  // Service in tag order: 10(s0), 20(s1), 25(s1), 30(s0).
  EXPECT_EQ(order, (std::vector<SlotId>{0, 1, 1, 0}));
}

TEST(SchedulerChip, FairTagBypassShortensDecision) {
  ChipConfig cfg = wr_config(4, ComparisonMode::kTagOnly);
  cfg.timing.bypass_update = true;
  SchedulerChip chip(cfg);
  SlotConfig fair;
  fair.mode = SlotMode::kFairTag;
  chip.load_slot(0, fair);
  chip.push_tagged_request(0, Deadline{1}, Arrival{0});
  const auto out = chip.run_decision_cycle();
  EXPECT_EQ(out.hw_cycles, 10u);  // 13 minus the 3 update cycles
}

TEST(SchedulerChip, WinnerCyclesCountCirculationsOnly) {
  SchedulerChip chip(block_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, i + 1));
  for (int k = 0; k < 3; ++k) {
    for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
    chip.run_decision_cycle();
  }
  std::uint64_t winners = 0, serviced = 0;
  for (unsigned i = 0; i < 4; ++i) {
    winners += chip.slot(i).counters().winner_cycles;
    serviced += chip.slot(i).counters().serviced;
  }
  EXPECT_EQ(winners, 3u);    // one circulation per decision cycle
  EXPECT_EQ(serviced, 12u);  // but every slot's frame was granted
}

TEST(SchedulerChip, FramesGrantedAccumulates) {
  SchedulerChip chip(block_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, i + 1));
  for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
  chip.run_decision_cycle();
  EXPECT_EQ(chip.frames_granted(), 4u);
}

TEST(SchedulerChip, LastBlockExposesSortedLanes) {
  SchedulerChip chip(block_config(4));
  for (unsigned i = 0; i < 4; ++i) chip.load_slot(i, edf_slot(4, 10 - i));
  for (unsigned i = 0; i < 4; ++i) chip.push_request(i);
  chip.run_decision_cycle();
  const auto& blk = chip.last_block();
  ASSERT_EQ(blk.size(), 4u);
  EXPECT_EQ(blk[0].id, 3);  // most urgent (deadline 7)
  EXPECT_EQ(blk[3].id, 0);
}

TEST(SchedulerChip, PeriodPerDecisionCycleHelper) {
  EXPECT_EQ(SchedulerChip(wr_config(8)).period_per_decision_cycle(), 1u);
  EXPECT_EQ(SchedulerChip(block_config(8)).period_per_decision_cycle(), 8u);
}

TEST(SchedulerChip, RunDecisionCyclesBatches) {
  SchedulerChip chip(wr_config(2));
  chip.load_slot(0, edf_slot(1, 1));
  chip.load_slot(1, edf_slot(1, 2));
  for (int i = 0; i < 50; ++i) chip.push_request(0);
  chip.run_decision_cycles(50);
  EXPECT_EQ(chip.decision_cycles(), 50u);
  EXPECT_EQ(chip.slot(0).counters().serviced, 50u);
}

}  // namespace
}  // namespace ss::hw
