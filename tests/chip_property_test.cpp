// chip_property_test.cpp — parameterized invariant sweeps over the full
// chip configuration matrix (slots x WR/BA x min/max-first x comparison
// mode x schedule).  These are the properties any correct realization of
// the architecture must satisfy regardless of workload:
//
//   * conservation: requests in == grants + drops + remaining backlog;
//   * serviced counters == total grants, winner_cycles == non-idle
//     decision cycles (exactly one circulation each);
//   * virtual time advances by exactly the frames emitted (or 1 if idle);
//   * no slot is granted twice in one WR cycle / more than once per block;
//   * one LOAD semantics: the default kernel, the reference comparators
//     and a sampled audit stay in lock-step, and each block equals what a
//     fresh network loaded in slot order produces;
//   * hardware-cycle accounting matches the control unit's sustained rate.
#include <gtest/gtest.h>

#include <string>

#include "hw/scheduler_chip.hpp"
#include "telemetry/audit.hpp"
#include "util/rng.hpp"

namespace ss::hw {
namespace {

struct MatrixCfg {
  unsigned slots;
  bool block;
  bool min_first;
  ComparisonMode cmp;
  SortSchedule schedule;
  bool compute_ahead;
};

class ChipMatrix : public ::testing::TestWithParam<MatrixCfg> {
 protected:
  SchedulerChip build(
      simd::KernelChoice kernel = simd::KernelChoice::kAuto) const {
    const MatrixCfg& m = GetParam();
    ChipConfig cfg;
    cfg.kernel = kernel;
    cfg.slots = m.slots;
    cfg.cmp_mode = m.cmp;
    cfg.block_mode = m.block;
    cfg.min_first = m.min_first;
    cfg.schedule = m.schedule;
    cfg.compute_ahead = m.compute_ahead;
    SchedulerChip chip(cfg);
    Rng rng(99);
    for (unsigned i = 0; i < m.slots; ++i) {
      SlotConfig sc;
      sc.mode = m.cmp == ComparisonMode::kDwcsFull ? SlotMode::kDwcs
                                                   : SlotMode::kEdf;
      sc.period = static_cast<std::uint16_t>(1 + rng.below(5));
      sc.loss_num = static_cast<Loss>(rng.below(3));
      sc.loss_den = static_cast<Loss>(sc.loss_num + 1 + rng.below(3));
      sc.droppable = rng.chance(0.5);
      sc.initial_deadline = Deadline{1 + rng.below(8)};
      chip.load_slot(static_cast<SlotId>(i), sc);
    }
    return chip;
  }
};

TEST_P(ChipMatrix, ConservationAndCounterConsistency) {
  SchedulerChip chip = build();
  const unsigned n = GetParam().slots;
  Rng rng(7);
  std::uint64_t pushed = 0, granted = 0, dropped = 0;
  std::uint64_t non_idle = 0;
  const int cycles = GetParam().block ? 400 : 800;
  for (int k = 0; k < cycles; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      if (rng.chance(0.5)) {
        chip.push_request(static_cast<SlotId>(i));
        ++pushed;
      }
    }
    const DecisionOutcome out = chip.run_decision_cycle();
    granted += out.grants.size();
    dropped += out.drops.size();
    non_idle += out.idle ? 0 : 1;
    // No slot appears twice among the grants of one cycle.
    std::vector<bool> seen(n, false);
    for (const Grant& g : out.grants) {
      ASSERT_FALSE(seen[g.slot]) << "double grant in one decision cycle";
      seen[g.slot] = true;
    }
    if (!GetParam().block) {
      ASSERT_LE(out.grants.size(), 1u);
    }
  }
  std::uint64_t backlog = 0, serviced = 0, winner_cycles = 0;
  for (unsigned i = 0; i < n; ++i) {
    backlog += chip.slot(static_cast<SlotId>(i)).backlog();
    serviced += chip.slot(static_cast<SlotId>(i)).counters().serviced;
    winner_cycles +=
        chip.slot(static_cast<SlotId>(i)).counters().winner_cycles;
  }
  EXPECT_EQ(pushed, granted + dropped + backlog);
  EXPECT_EQ(serviced, granted);
  EXPECT_EQ(winner_cycles, non_idle);  // exactly one circulation per cycle
  EXPECT_EQ(chip.frames_granted(), granted);
}

TEST_P(ChipMatrix, VtimeAdvancesByFramesEmitted) {
  SchedulerChip chip = build();
  const unsigned n = GetParam().slots;
  Rng rng(8);
  for (int k = 0; k < 300; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      if (rng.chance(0.4)) chip.push_request(static_cast<SlotId>(i));
    }
    const std::uint64_t before = chip.vtime();
    const DecisionOutcome out = chip.run_decision_cycle();
    const std::uint64_t advance =
        out.idle ? 1 : std::max<std::uint64_t>(out.grants.size(), 1);
    ASSERT_EQ(chip.vtime(), before + advance);
    // Emission times are consecutive packet-times within the cycle.
    for (std::size_t g = 0; g < out.grants.size(); ++g) {
      ASSERT_EQ(out.grants[g].emit_vtime, before + g);
    }
  }
}

TEST_P(ChipMatrix, DeterministicLockStep) {
  // Register Base block i drives network input i at every LOAD, so the
  // default kernel, the reference comparators and a 1-in-4 sampled audit
  // grant the same frames and leave the same block.  The oracle is a
  // fresh reference network loaded with the slots' attribute words in
  // slot order before each decision.  The default-kernel chip is checked
  // through its outcomes every decision and through last_block() only at
  // the end: it must keep the schedule with nothing reading its lanes.
  const MatrixCfg& m = GetParam();
  SchedulerChip a = build();
  SchedulerChip ref = build(simd::KernelChoice::kReference);
  SchedulerChip audited = build();
  telemetry::AuditSession session(m.slots);
  session.set_sampling(4);
  audited.attach_audit(&session);
  Rng rng(9);
  const unsigned n = m.slots;
  std::vector<AttrWord> words(n);
  for (int k = 0; k < 400; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      if (rng.chance(0.6)) {
        for (SchedulerChip* c : {&a, &ref, &audited}) {
          c->push_request(static_cast<SlotId>(i));
        }
      }
    }
    for (unsigned s = 0; s < n; ++s) {
      words[s] = ref.slot(static_cast<SlotId>(s)).attrs();
    }
    ShuffleNetwork oracle(n, m.schedule, m.cmp,
                          simd::KernelChoice::kReference);
    oracle.load(words);
    oracle.run_all();
    const auto oa = a.run_decision_cycle();
    for (SchedulerChip* c : {&ref, &audited}) {
      const auto ob = c->run_decision_cycle();
      ASSERT_EQ(oa.idle, ob.idle) << "decision " << k;
      ASSERT_EQ(oa.grants.size(), ob.grants.size()) << "decision " << k;
      for (std::size_t g = 0; g < oa.grants.size(); ++g) {
        ASSERT_EQ(oa.grants[g].slot, ob.grants[g].slot) << "decision " << k;
      }
      ASSERT_EQ(oa.block, ob.block) << "decision " << k;
      ASSERT_EQ(oa.drops, ob.drops) << "decision " << k;
      ASSERT_EQ(a.vtime(), c->vtime()) << "decision " << k;
      if (!ob.idle) {
        ASSERT_EQ(c->last_block(), oracle.lanes()) << "decision " << k;
      }
    }
  }
  EXPECT_EQ(a.last_block(), ref.last_block());
}

TEST_P(ChipMatrix, HwCyclesMatchControlModel) {
  SchedulerChip chip = build();
  const unsigned n = GetParam().slots;
  for (unsigned i = 0; i < n; ++i) chip.push_request(static_cast<SlotId>(i));
  const auto out = chip.run_decision_cycle();
  EXPECT_EQ(out.hw_cycles, chip.control().sustained_cycles_per_decision());
  EXPECT_EQ(chip.hw_cycles(),
            chip.decision_cycles() *
                chip.control().sustained_cycles_per_decision());
}

TEST_P(ChipMatrix, MidRunSlotReloadIsCleanReset) {
  // Systems software may reconfigure a stream-slot while the rest of the
  // chip keeps running (a stream teardown/re-admission).  The reloaded
  // slot must come back with zeroed counters and empty backlog, and the
  // other slots must be unaffected.
  SchedulerChip chip = build();
  const unsigned n = GetParam().slots;
  Rng rng(17);
  for (int k = 0; k < 200; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      if (rng.chance(0.5)) chip.push_request(static_cast<SlotId>(i));
    }
    chip.run_decision_cycle();
  }
  // Drain the remaining backlog so the post-reload grant timing is
  // deterministic.
  for (int guard = 0; guard < 30000; ++guard) {
    if (chip.run_decision_cycle().idle) break;
  }
  const auto other_serviced =
      chip.slot(static_cast<SlotId>(1)).counters().serviced;
  SlotConfig fresh;
  fresh.mode = SlotMode::kEdf;
  fresh.period = 3;
  fresh.initial_deadline = Deadline{chip.vtime() + 3};
  chip.load_slot(0, fresh);
  EXPECT_EQ(chip.slot(0).backlog(), 0u);
  EXPECT_EQ(chip.slot(0).counters().serviced, 0u);
  EXPECT_EQ(chip.slot(0).counters().missed_deadlines, 0u);
  EXPECT_EQ(chip.slot(static_cast<SlotId>(1)).counters().serviced,
            other_serviced);
  // The chip keeps scheduling sanely afterwards: with the backlog drained
  // the reloaded slot's request is granted immediately and on time.
  chip.push_request(0);
  for (int k = 0; k < 5; ++k) {
    const auto out = chip.run_decision_cycle();
    for (const auto& g : out.grants) {
      if (g.slot == 0) {
        EXPECT_TRUE(g.met_deadline);
        return;
      }
    }
  }
  FAIL() << "reloaded slot never scheduled";
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixCfg>& info) {
  const MatrixCfg& m = info.param;
  std::string s = "N";
  s += std::to_string(m.slots);
  s += m.block ? (m.min_first ? "_BlkMin" : "_BlkMax") : "_WR";
  s += m.cmp == ComparisonMode::kDwcsFull ? "_DWCS" : "_EDF";
  switch (m.schedule) {
    case SortSchedule::kPerfectShuffle: s += "_Shuf"; break;
    case SortSchedule::kBitonic: s += "_Bit"; break;
    case SortSchedule::kOddEven: s += "_OE"; break;
  }
  if (m.compute_ahead) s += "_CA";
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChipMatrix,
    ::testing::Values(
        MatrixCfg{2, false, false, ComparisonMode::kTagOnly,
                  SortSchedule::kPerfectShuffle, false},
        MatrixCfg{4, false, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kPerfectShuffle, false},
        MatrixCfg{4, true, false, ComparisonMode::kTagOnly,
                  SortSchedule::kPerfectShuffle, false},
        MatrixCfg{4, true, true, ComparisonMode::kDwcsFull,
                  SortSchedule::kBitonic, false},
        MatrixCfg{8, false, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kBitonic, true},
        MatrixCfg{8, true, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kPerfectShuffle, false},
        MatrixCfg{16, true, true, ComparisonMode::kTagOnly,
                  SortSchedule::kOddEven, false},
        MatrixCfg{16, false, false, ComparisonMode::kTagOnly,
                  SortSchedule::kPerfectShuffle, true},
        MatrixCfg{32, true, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kBitonic, false},
        MatrixCfg{32, true, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kPerfectShuffle, false},
        MatrixCfg{32, false, false, ComparisonMode::kDwcsFull,
                  SortSchedule::kPerfectShuffle, false}),
    matrix_name);

}  // namespace
}  // namespace ss::hw
