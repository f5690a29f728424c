// register_block_test.cpp — per-slot state storage and the DWCS
// winner/loser attribute adjustments.
#include <gtest/gtest.h>

#include "hw/decision_block.hpp"
#include "hw/register_block.hpp"

namespace ss::hw {
namespace {

SlotConfig dwcs_cfg(std::uint16_t period, Loss x, Loss y,
                    bool droppable = true, std::uint64_t dl0 = 10) {
  SlotConfig c;
  c.mode = SlotMode::kDwcs;
  c.period = period;
  c.loss_num = x;
  c.loss_den = y;
  c.droppable = droppable;
  c.initial_deadline = Deadline{dl0};
  return c;
}

TEST(RegisterBlock, LoadInitializesState) {
  RegisterBlock rb;
  rb.load(3, dwcs_cfg(5, 2, 4));
  EXPECT_EQ(rb.id(), 3);
  EXPECT_EQ(rb.deadline().raw(), 10u);
  EXPECT_EQ(rb.loss_num(), 2);
  EXPECT_EQ(rb.loss_den(), 4);
  EXPECT_EQ(rb.backlog(), 0u);
  EXPECT_FALSE(rb.attrs().pending);
}

TEST(RegisterBlock, PushRequestLatchesHeadArrivalOnly) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 1));
  rb.push_request(Arrival{5});
  rb.push_request(Arrival{9});  // later packet must not disturb head FCFS
  EXPECT_EQ(rb.backlog(), 2u);
  EXPECT_EQ(rb.attrs().arrival.raw(), 5u);
  EXPECT_TRUE(rb.attrs().pending);
}

TEST(RegisterBlock, ServiceOnTimeAdvancesDeadline) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(7, 0, 1, true, 10));
  rb.push_request(Arrival{0});
  const bool met = rb.service_update(/*now=*/4, /*circulated=*/true);
  EXPECT_TRUE(met);
  EXPECT_EQ(rb.deadline().raw(), 17u);
  EXPECT_EQ(rb.counters().serviced, 1u);
  EXPECT_EQ(rb.counters().missed_deadlines, 0u);
  EXPECT_EQ(rb.counters().winner_cycles, 1u);
  EXPECT_EQ(rb.backlog(), 0u);
}

TEST(RegisterBlock, ServiceAtDeadlineIsLate) {
  // Convention: the packet must be scheduled BEFORE the end of its
  // request period, so now == deadline is late.
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(7, 0, 1, true, 10));
  rb.push_request(Arrival{0});
  const bool met = rb.service_update(/*now=*/10, true);
  EXPECT_FALSE(met);
  EXPECT_EQ(rb.counters().late_transmissions, 1u);
  EXPECT_EQ(rb.counters().missed_deadlines, 1u);
}

TEST(RegisterBlock, NonCirculatedServiceSkipsWindowAdjust) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 2, 4));
  rb.push_request(Arrival{0});
  rb.service_update(0, /*circulated=*/false);
  EXPECT_EQ(rb.loss_num(), 2);  // untouched
  EXPECT_EQ(rb.loss_den(), 4);
  EXPECT_EQ(rb.counters().winner_cycles, 0u);
  EXPECT_EQ(rb.counters().serviced, 1u);
}

TEST(RegisterBlock, WinnerWindowAdjustConsumesPosition) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 2, 4));
  rb.push_request(Arrival{0});
  rb.service_update(0, true);
  EXPECT_EQ(rb.loss_num(), 1);  // x'-- y'--
  EXPECT_EQ(rb.loss_den(), 3);
}

TEST(RegisterBlock, WindowResetsWhenBothReachZero) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 1, 1));
  rb.push_request(Arrival{0});
  rb.service_update(0, true);  // 1/1 -> 0/0 -> reset to 1/1
  EXPECT_EQ(rb.loss_num(), 1);
  EXPECT_EQ(rb.loss_den(), 1);
}

TEST(RegisterBlock, ZeroNumeratorServiceShrinksDenominator) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 3));
  rb.push_request(Arrival{0});
  rb.service_update(0, true);
  EXPECT_EQ(rb.loss_num(), 0);
  EXPECT_EQ(rb.loss_den(), 2);
}

TEST(RegisterBlock, MissConsumesToleratedLoss) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(2, 2, 4, /*droppable=*/true, /*dl0=*/5));
  rb.push_request(Arrival{0});
  const auto r = rb.miss_update(/*now=*/6);
  EXPECT_TRUE(r.missed);
  EXPECT_FALSE(r.violated);  // x' was 2: a tolerated loss
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(rb.loss_num(), 1);
  EXPECT_EQ(rb.loss_den(), 3);
  EXPECT_EQ(rb.deadline().raw(), 7u);  // advanced by the period
  EXPECT_EQ(rb.backlog(), 0u);         // late head dropped
  EXPECT_EQ(rb.counters().missed_deadlines, 1u);
}

TEST(RegisterBlock, ViolationRaisesPriorityDenominator) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(2, 0, 3, /*droppable=*/false, /*dl0=*/5));
  rb.push_request(Arrival{0});
  const auto r = rb.miss_update(6);
  EXPECT_TRUE(r.missed);
  EXPECT_TRUE(r.violated);
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(rb.loss_den(), 4);  // y'++ boosts rule-3 priority
  EXPECT_EQ(rb.counters().violations, 1u);
  EXPECT_EQ(rb.backlog(), 1u);  // non-droppable head stays
  EXPECT_EQ(rb.deadline().raw(), 5u);
}

TEST(RegisterBlock, ViolationDenominatorSaturatesAt255) {
  RegisterBlock rb;
  SlotConfig c = dwcs_cfg(1, 0, 255, false, 0);
  rb.load(0, c);
  rb.push_request(Arrival{0});
  rb.miss_update(1);
  rb.miss_update(2);
  EXPECT_EQ(rb.loss_den(), 255);  // 8-bit field saturates
}

TEST(RegisterBlock, MissBeforeDeadlineDoesNothing) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(2, 1, 2, true, 100));
  rb.push_request(Arrival{0});
  const auto r = rb.miss_update(50);
  EXPECT_FALSE(r.missed);
  EXPECT_EQ(rb.counters().missed_deadlines, 0u);
  EXPECT_EQ(rb.backlog(), 1u);
}

TEST(RegisterBlock, MissOnIdleSlotDoesNothing) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(2, 1, 2, true, 0));
  const auto r = rb.miss_update(100);
  EXPECT_FALSE(r.missed);
}

TEST(RegisterBlock, EdfModeFreezesWindowFields) {
  SlotConfig c = dwcs_cfg(3, 2, 4, true, 5);
  c.mode = SlotMode::kEdf;
  RegisterBlock rb;
  rb.load(0, c);
  rb.push_request(Arrival{0});
  rb.service_update(0, true);
  EXPECT_EQ(rb.loss_num(), 2);
  EXPECT_EQ(rb.loss_den(), 4);
  EXPECT_EQ(rb.deadline().raw(), 8u);  // deadline still advances
  rb.push_request(Arrival{1});
  rb.miss_update(100);
  EXPECT_EQ(rb.loss_num(), 2);  // loser adjust also inert
  EXPECT_EQ(rb.counters().missed_deadlines, 1u);
}

TEST(RegisterBlock, StaticModeNeverMissesOrMoves) {
  SlotConfig c;
  c.mode = SlotMode::kStaticPrio;
  c.loss_den = 7;  // priority level
  c.period = 0;
  c.initial_deadline = Deadline{0};
  RegisterBlock rb;
  rb.load(0, c);
  rb.push_request(Arrival{0});
  EXPECT_FALSE(rb.miss_update(10000).missed);
  rb.service_update(10000, true);
  EXPECT_EQ(rb.deadline().raw(), 0u);  // pinned
  EXPECT_EQ(rb.loss_den(), 7);
}

TEST(RegisterBlock, ExpiredLatchSurvivesDeepBacklogWrap) {
  // A non-droppable slot whose head is 40000+ time units stale: the plain
  // 16-bit comparison would wrap into "the future"; the latch must hold.
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 1, /*droppable=*/false, /*dl0=*/100));
  rb.push_request(Arrival{0});
  EXPECT_TRUE(rb.miss_update(101).missed);  // latch sets here
  // 40000 cycles later the serial compare alone would say "not expired".
  EXPECT_TRUE(rb.miss_update(101 + 40000).missed);
  EXPECT_TRUE(rb.miss_update(101 + 60000).missed);
  EXPECT_EQ(rb.counters().missed_deadlines, 3u);
}

TEST(RegisterBlock, DeadlineExpiredIsAPureQuery) {
  // Only the PRIORITY_UPDATE paths set the latch: a query at 101 must not,
  // so 40000 units later the wrapped 16-bit compare reads "not expired".
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 1, /*droppable=*/false, /*dl0=*/100));
  rb.push_request(Arrival{0});
  EXPECT_TRUE(rb.deadline_expired(101));
  EXPECT_FALSE(rb.expired_latched());
  EXPECT_FALSE(rb.deadline_expired(101 + 40000));
}

TEST(RegisterBlock, LatchClearsWhenHeadAdvancesIntoTheFuture) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1000, 0, 1, true, 5));
  rb.push_request(Arrival{0});
  rb.push_request(Arrival{1});
  EXPECT_TRUE(rb.miss_update(6).missed);  // head dropped, deadline -> 1005
  EXPECT_FALSE(rb.miss_update(7).missed);
  EXPECT_FALSE(rb.deadline_expired(7));
  EXPECT_TRUE(rb.deadline_expired(1005));
}

TEST(RegisterBlock, SpuriousGrantOnIdleSlotIsHarmless) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 1));
  EXPECT_TRUE(rb.service_update(0, true));
  EXPECT_EQ(rb.counters().serviced, 0u);
}

TEST(RegisterBlock, AttrsReflectLiveState) {
  RegisterBlock rb;
  rb.load(9, dwcs_cfg(2, 1, 3, true, 42));
  rb.push_request(Arrival{7});
  const AttrWord w = rb.attrs();
  EXPECT_EQ(w.id, 9);
  EXPECT_EQ(w.deadline.raw(), 42u);
  EXPECT_EQ(w.loss_num, 1);
  EXPECT_EQ(w.loss_den, 3);
  EXPECT_EQ(w.arrival.raw(), 7u);
  EXPECT_TRUE(w.pending);
}

TEST(RegisterBlock, CirculatedServiceRefreshesArrival) {
  RegisterBlock rb;
  rb.load(0, dwcs_cfg(1, 0, 1, true, 100));
  rb.push_request(Arrival{3});
  rb.push_request(Arrival{4});
  rb.service_update(/*now=*/50, /*circulated=*/true);
  EXPECT_EQ(rb.attrs().arrival.raw(), 50u);
}

TEST(RegisterBlock, AreaConstantsMatchPaper) {
  EXPECT_EQ(kRegisterBlockSlices, 150u);
  EXPECT_EQ(kDecisionBlockSlices, 190u);
}

}  // namespace
}  // namespace ss::hw
