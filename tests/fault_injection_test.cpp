// fault_injection_test.cpp — deliberate abuse of every layer: the failure
// paths a production deployment hits (misprogrammed firmware, overflowed
// queues, schedulers running ahead of producers, degenerate
// configurations) must fail loudly or degrade accountably — never
// silently corrupt.
#include <gtest/gtest.h>

#include <memory>

#include "core/endsystem.hpp"
#include "core/spec_parser.hpp"
#include "fabric/switch_system.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/sram.hpp"
#include "hw/streaming_unit.hpp"
#include "hwpq/binary_heap_pq.hpp"
#include "queueing/spsc_ring.hpp"
#include "util/rng.hpp"

namespace ss {
namespace {

// ---- memory-system abuse ------------------------------------------------

TEST(FaultInjection, SramAccessWithoutOwnershipThrows) {
  hw::SramBank bank(64, Nanos{100});
  (void)bank.acquire(hw::BankOwner::kFpga);
  EXPECT_THROW(bank.write(hw::BankOwner::kHost, 0, 1), std::logic_error);
  EXPECT_THROW((void)bank.read(hw::BankOwner::kHost, 0), std::logic_error);
  // The rightful owner still works afterwards.
  EXPECT_NO_THROW(bank.write(hw::BankOwner::kFpga, 0, 7));
}

TEST(FaultInjection, SramOutOfRangeThrowsNotWraps) {
  hw::SramBank bank(8, Nanos{0});
  EXPECT_THROW(bank.write(hw::BankOwner::kHost, 8, 1), std::out_of_range);
  EXPECT_THROW(bank.write(hw::BankOwner::kHost, ~0ull, 1),
               std::out_of_range);
}

TEST(FaultInjection, DualPortOutOfRangeThrows) {
  hw::DualPortedSram mem(16);
  EXPECT_THROW(mem.write(16, 1), std::out_of_range);
  EXPECT_THROW((void)mem.read(99), std::out_of_range);
}

// ---- queue abuse ----------------------------------------------------------

TEST(FaultInjection, RingNeverLosesSilentlyUnderOverflowStorm) {
  queueing::SpscRing<int> ring(8);
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) accepted += ring.try_push(i);
  // Everything accepted is retrievable in order; everything else was
  // refused visibly (try_push returned false), not dropped inside.
  int v, got = 0;
  int expect = 0;
  while (ring.try_pop(v)) {
    EXPECT_EQ(v, expect++);
    ++got;
  }
  EXPECT_EQ(got, accepted);
}

TEST(FaultInjection, SchedulerAheadOfProducerCountsSpurious) {
  queueing::QueueManager qm;
  queueing::LinkModel link(1.0);
  queueing::TransmissionEngine te(qm, link);
  const auto s = qm.add_stream(8);
  const queueing::BlockGrant grant[] = {{s, 0}};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(te.transmit_block(grant), 0u);
  EXPECT_EQ(te.spurious_schedules(), 5u);
  EXPECT_EQ(link.busy_until_ns(), 0u);  // nothing reached the link
}

TEST(FaultInjection, StreamingUnderrunStormIsCountedNotFatal) {
  hw::PciModel pci;
  hw::SramBank bank(1024, Nanos{0});
  hw::StreamingUnit su(hw::StreamingUnitConfig{}, pci, bank, 1);
  std::uint16_t off;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(su.pop_arrival(0, off));
  EXPECT_EQ(su.stats().underruns, 1000u);
}

// ---- scheduler abuse ------------------------------------------------------

TEST(FaultInjection, GrantStormOnIdleChipStaysIdle) {
  hw::ChipConfig cfg;
  cfg.slots = 4;
  hw::SchedulerChip chip(cfg);
  for (unsigned i = 0; i < 4; ++i) {
    hw::SlotConfig sc;
    sc.mode = hw::SlotMode::kEdf;
    sc.period = 1;
    chip.load_slot(static_cast<hw::SlotId>(i), sc);
  }
  for (int k = 0; k < 100; ++k) {
    const auto out = chip.run_decision_cycle();
    ASSERT_TRUE(out.idle);
    ASSERT_TRUE(out.grants.empty());
  }
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(chip.slot(static_cast<hw::SlotId>(i)).counters().serviced, 0u);
  }
  EXPECT_EQ(chip.vtime(), 100u);  // idle packet-times still pass
}

TEST(FaultInjection, BacklogCounterSaturationHorizon) {
  // Tens of thousands of never-served requests: counters must keep
  // counting without overflow or wrap artifacts in the 64-bit counters.
  hw::ChipConfig cfg;
  cfg.slots = 2;
  cfg.cmp_mode = hw::ComparisonMode::kTagOnly;
  hw::SchedulerChip chip(cfg);
  hw::SlotConfig starving;
  starving.mode = hw::SlotMode::kEdf;
  starving.period = 1;
  starving.droppable = false;
  starving.initial_deadline = hw::Deadline{1};
  chip.load_slot(0, starving);
  chip.load_slot(1, starving);
  for (int k = 0; k < 50000; ++k) {
    chip.push_request(0);
    chip.push_request(0);  // slot 0 floods; slot 1 occasionally
    if (k % 100 == 0) chip.push_request(1);
    chip.run_decision_cycle();
  }
  const auto& c0 = chip.slot(0).counters();
  const auto& c1 = chip.slot(1).counters();
  EXPECT_EQ(c0.serviced + c1.serviced, 50000u);
  EXPECT_EQ(chip.slot(0).backlog() + chip.slot(1).backlog(),
            100000u + 500u - 50000u);
}

TEST(FaultInjection, DegenerateWindowConfigsDontDivide) {
  // y' = 0 and x' = 0 configurations must order deterministically (the
  // cross-multiplication never divides) and never crash updates.
  hw::ChipConfig cfg;
  cfg.slots = 4;
  cfg.cmp_mode = hw::ComparisonMode::kDwcsFull;
  hw::SchedulerChip chip(cfg);
  const hw::Loss xs[4] = {0, 0, 3, 255};
  const hw::Loss ys[4] = {0, 255, 0, 255};
  for (unsigned i = 0; i < 4; ++i) {
    hw::SlotConfig sc;
    sc.mode = hw::SlotMode::kDwcs;
    sc.period = 1;
    sc.loss_num = xs[i];
    sc.loss_den = ys[i];
    sc.initial_deadline = hw::Deadline{1};
    chip.load_slot(static_cast<hw::SlotId>(i), sc);
  }
  for (int k = 0; k < 2000; ++k) {
    for (unsigned i = 0; i < 4; ++i) chip.push_request(static_cast<hw::SlotId>(i));
    const auto out = chip.run_decision_cycle();
    ASSERT_EQ(out.grants.size(), 1u);
  }
  std::uint64_t served = 0;
  for (unsigned i = 0; i < 4; ++i) {
    served += chip.slot(static_cast<hw::SlotId>(i)).counters().serviced;
  }
  EXPECT_EQ(served, 2000u);
}

// ---- structure abuse ------------------------------------------------------

TEST(FaultInjection, HeapOverflowThrowsBeforeCorruption) {
  hwpq::BinaryHeapPq pq(3);
  pq.push({3, 0});
  pq.push({1, 1});
  pq.push({2, 2});
  EXPECT_THROW(pq.push({0, 3}), std::length_error);
  // Contents intact and ordered after the refused push.
  EXPECT_EQ(pq.pop_min()->key, 1u);
  EXPECT_EQ(pq.pop_min()->key, 2u);
  EXPECT_EQ(pq.pop_min()->key, 3u);
}

// ---- system abuse ----------------------------------------------------------

TEST(FaultInjection, SwitchAbsorbsTargetedOverload) {
  fabric::SwitchConfig cfg;
  cfg.ports = 2;
  cfg.slots_per_port = 2;
  cfg.staging_depth = 4;
  cfg.port_queue_depth = 8;
  fabric::SwitchSystem sw(cfg);
  for (unsigned p = 0; p < 2; ++p) {
    for (unsigned s = 0; s < 2; ++s) {
      hw::SlotConfig sc;
      sc.mode = hw::SlotMode::kEdf;
      sc.period = 2;
      sc.droppable = false;
      sc.initial_deadline = hw::Deadline{s + 1};
      sw.load_slot(p, static_cast<hw::SlotId>(s), sc);
    }
  }
  sw.flows().add({0, 0}, {0, 0});
  std::uint64_t injected = 0;
  for (int t = 0; t < 2000; ++t) {
    for (int burst = 0; burst < 8; ++burst) {
      injected += sw.inject(0, {0, 0}) ? 1 : 0;
    }
    sw.step();
  }
  for (int t = 0; t < 600; ++t) sw.step();
  const auto& st = sw.port_stats(0);
  const std::uint64_t accounted = st.transmitted + st.queue_drops +
                                  sw.crossbar().staging_drops();
  EXPECT_EQ(accounted, injected);
  // The 8x overload is refused at the ingress FIFO (visible backpressure,
  // every refusal counted), not lost inside the switch.
  EXPECT_GT(sw.crossbar().input_drops(), 1000u);
  EXPECT_LT(injected, 2000u * 8u);
}

TEST(FaultInjection, SpecParserSurvivesGarbage) {
  Rng rng(8899);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const int len = static_cast<int>(rng.below(120));
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(32 + rng.below(95)));
    }
    garbage.push_back('\n');
    const auto res = core::parse_stream_specs(garbage);  // must not crash
    if (!res.ok) {
      EXPECT_TRUE(res.streams.empty());
    }
  }
}

}  // namespace
}  // namespace ss
