// block_batch_test.cpp — batch-drained block decisions are winner-grant
// sequences in disguise.
//
// The tentpole claim of the block-batched transmission pipeline: because
// the decision block ranks pending slots first, granting the first K
// entries of the sorted block and draining them in one Transmission
// Engine pass is observationally equivalent to K sequential winner-only
// grants.  These tests pin that equivalence at three layers:
//   * chip level   — block mode with batch_depth=1 reproduces the WR
//                    grant stream exactly (same slots, vtimes, counters);
//   * pipeline     — a >=10k-decision fuzz campaign checks the batched
//                    endsystem output is a permutation-free prefix match
//                    of the batch_depth=1 stream, per stream, plus FIFO
//                    and conservation invariants at every depth;
//   * differential — the chip-vs-oracle executor agrees grant-by-grant on
//                    fuzzer scenarios that sample the batch_depth axis;
//   * sweep        — the endsystem's deterministic outputs across the
//                    winner-only / depth 1 / 4 / whole-block sweep at
//                    4, 16 and 32 streams are pinned exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/endsystem.hpp"
#include "hw/scheduler_chip.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/transmission_engine.hpp"
#include "testing/batch_equivalence.hpp"
#include "testing/differential_executor.hpp"
#include "testing/workload_fuzzer.hpp"

namespace ss {
namespace {

// ---------------------------------------------------------------------------
// Chip level: batch_depth=1 on the block datapath IS winner-only routing.

hw::ChipConfig full_sort_config(bool block_mode, unsigned batch_depth) {
  hw::ChipConfig cfg;
  cfg.slots = 8;
  cfg.block_mode = block_mode;
  cfg.batch_depth = batch_depth;
  cfg.schedule = hw::SortSchedule::kBitonic;
  return cfg;
}

hw::SlotConfig dwcs_slot(std::uint16_t period, std::uint64_t deadline) {
  hw::SlotConfig sc;
  sc.period = period;
  sc.initial_deadline = hw::Deadline{deadline};
  sc.droppable = false;
  return sc;
}

TEST(BlockBatchChip, DepthOneEqualsWinnerOnlyGrantStream) {
  hw::SchedulerChip wr(full_sort_config(false, 0));
  hw::SchedulerChip block1(full_sort_config(true, 1));
  for (unsigned i = 0; i < 8; ++i) {
    const auto sc = dwcs_slot(static_cast<std::uint16_t>(2 + i % 3), 1 + i);
    wr.load_slot(static_cast<hw::SlotId>(i), sc);
    block1.load_slot(static_cast<hw::SlotId>(i), sc);
  }
  // Deterministic bursty arrivals, then drain with interleaved refills.
  std::uint32_t x = 12345;
  for (int round = 0; round < 200; ++round) {
    x = x * 1664525u + 1013904223u;
    const auto s = static_cast<hw::SlotId>((x >> 8) % 8);
    wr.push_request(s);
    block1.push_request(s);
    if (round % 3 != 0) continue;
    const hw::DecisionOutcome a = wr.run_decision_cycle();
    const hw::DecisionOutcome b = block1.run_decision_cycle();
    ASSERT_EQ(a.idle, b.idle) << "round " << round;
    ASSERT_EQ(a.grants.size(), b.grants.size());
    for (std::size_t g = 0; g < a.grants.size(); ++g) {
      EXPECT_EQ(a.grants[g].slot, b.grants[g].slot);
      EXPECT_EQ(a.grants[g].emit_vtime, b.grants[g].emit_vtime);
      EXPECT_EQ(a.grants[g].met_deadline, b.grants[g].met_deadline);
    }
    ASSERT_EQ(a.drops, b.drops);
    ASSERT_EQ(wr.vtime(), block1.vtime());
  }
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(wr.slot(static_cast<hw::SlotId>(i)).counters().serviced,
              block1.slot(static_cast<hw::SlotId>(i)).counters().serviced)
        << "slot " << i;
  }
}

TEST(BlockBatchChip, BatchDepthCapsGrantsAndExportsWholeBlock) {
  hw::SchedulerChip chip(full_sort_config(true, 3));
  for (unsigned i = 0; i < 8; ++i) {
    chip.load_slot(static_cast<hw::SlotId>(i), dwcs_slot(4, 10 + i));
  }
  for (unsigned i = 0; i < 6; ++i) {
    chip.push_request(static_cast<hw::SlotId>(i));
  }
  const hw::DecisionOutcome out = chip.run_decision_cycle();
  ASSERT_FALSE(out.idle);
  EXPECT_EQ(out.block.size(), 6u);   // every pending lane, in emission order
  EXPECT_EQ(out.grants.size(), 3u);  // capped at batch_depth
  for (std::size_t g = 0; g < out.grants.size(); ++g) {
    EXPECT_EQ(out.grants[g].slot, out.block[g]);
    EXPECT_EQ(out.grants[g].emit_vtime, g);  // vtime started at 0
  }
  // Ungranted block entries stay backlogged for the next sort.
  std::uint64_t backlog = 0;
  for (unsigned i = 0; i < 8; ++i) {
    backlog += chip.slot(static_cast<hw::SlotId>(i)).backlog();
  }
  EXPECT_EQ(backlog, 3u);
}

// ---------------------------------------------------------------------------
// Queueing level: the TE serves one pop per grant, even for a burst that
// repeats a stream (no decision hands it one).

TEST(BlockBatchEngine, TransmitBlockCountsSpuriousPerUnfilledGrant) {
  queueing::QueueManager qm(1000);
  queueing::LinkModel link(1.0);
  queueing::TransmissionEngine te(qm, link);
  qm.add_stream(16);
  qm.add_stream(16);
  queueing::Frame f;
  f.stream = 0;
  ASSERT_TRUE(qm.produce(0, f));
  // Grant stream 0 twice (one frame available) and stream 1 once (empty).
  const queueing::BlockGrant burst[] = {{0, 0}, {0, 1}, {1, 2}};
  std::vector<queueing::TxRecord> recs;
  EXPECT_EQ(te.transmit_block(burst, &recs), 1u);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].stream, 0u);
  EXPECT_EQ(te.spurious_schedules(), 2u);
}

// ---------------------------------------------------------------------------
// Pipeline level: the >=10k-decision batch-equivalence fuzz campaign.

TEST(BlockBatchProperty, BatchedDrainPrefixMatchesWinnerOnlyAcrossCampaign) {
  testing::WorkloadFuzzer::Options fo;
  fo.seed = 20030406;  // the paper's conference date, why not
  fo.events_per_scenario = 600;
  testing::WorkloadFuzzer fuzzer(fo);

  const unsigned kDepths[] = {2, 4, 0};
  std::uint64_t decisions = 0;
  std::uint64_t scenarios = 0;
  while (decisions < 10000) {
    const testing::Scenario sc = fuzzer.next();
    if (!sc.fabric.block_mode) continue;  // WR points have no block to batch
    ++scenarios;
    const testing::PipelineRun base = testing::run_block_pipeline(sc, 1);
    decisions += base.decisions;
    ASSERT_EQ(testing::check_run_integrity(sc, base), "")
        << "scenario " << scenarios << " depth 1";
    for (const unsigned depth : kDepths) {
      const testing::PipelineRun batched =
          testing::run_block_pipeline(sc, depth);
      decisions += batched.decisions;
      ASSERT_EQ(testing::check_batch_equivalence(sc, base, batched), "")
          << "scenario " << scenarios << " depth " << depth;
    }
  }
  EXPECT_GE(decisions, 10000u);
  EXPECT_GT(scenarios, 0u);
}

// ---------------------------------------------------------------------------
// Differential level: chip vs oracle, batch_depth axis sampled.

TEST(BlockBatchDifferential, ChipMatchesOracleWithBatchDepthSampled) {
  testing::WorkloadFuzzer::Options fo;
  fo.seed = 7;
  fo.events_per_scenario = 400;
  fo.explore_batch = true;
  testing::WorkloadFuzzer fuzzer(fo);
  const testing::DifferentialExecutor exec;

  std::uint64_t batched_seen = 0;
  for (int i = 0; i < 80; ++i) {
    const testing::Scenario sc = fuzzer.next();
    if (sc.fabric.block_mode && sc.fabric.batch_depth > 0) ++batched_seen;
    const testing::RunResult res = exec.run(sc);
    ASSERT_FALSE(res.diverged)
        << "scenario " << i << " (batch_depth=" << sc.fabric.batch_depth
        << "): " << res.detail << " at event " << res.event_index;
  }
  // The axis must actually have been exercised, not just permitted.
  EXPECT_GE(batched_seen, 5u);
}

// ---------------------------------------------------------------------------
// Sweep level: the block-vs-winner depth sweep through Endsystem::run.
// Backlogged fair-share streams (weights 1..4, every frame queued at t=0)
// on the tag-only bitonic datapath.  Host time varies from run to run;
// every output pinned here is a function of the schedule alone.  The
// delay percentiles are read off the log-binned delay histogram.

struct SweepPoint {
  bool block;
  unsigned batch_depth;
  unsigned streams;
  std::uint64_t frames;
  std::uint64_t decisions;
  std::uint64_t committed;
  double hw_cycles_per_decision;  ///< per committed decision
  double frames_per_decision;     ///< per committed decision
  double p50_delay_us;            ///< worst stream
  double p99_delay_us;            ///< worst stream
};

SweepPoint run_sweep_point(bool block, unsigned batch_depth,
                           unsigned streams) {
  core::EndsystemConfig cfg;
  cfg.chip.slots = streams;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.chip.schedule = hw::SortSchedule::kBitonic;
  cfg.chip.block_mode = block;
  cfg.chip.batch_depth = block ? batch_depth : 0;
  cfg.pci_batch = 32;
  cfg.keep_series = false;
  cfg.delay_histogram = true;
  core::Endsystem es(cfg);
  for (unsigned i = 0; i < streams; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = 1.0 + static_cast<double>(i % 4);
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(0), 1500);
  }
  const std::uint64_t hw_before = es.chip().hw_cycles();
  const core::EndsystemReport rep = es.run(2000);
  const auto hw_cycles =
      static_cast<double>(es.chip().hw_cycles() - hw_before);
  const auto committed = static_cast<double>(rep.committed_decisions);
  SweepPoint p{block,
               batch_depth,
               streams,
               rep.frames,
               rep.decision_cycles,
               rep.committed_decisions,
               hw_cycles / committed,
               static_cast<double>(rep.frames) / committed,
               0.0,
               0.0};
  for (unsigned i = 0; i < streams; ++i) {
    p.p50_delay_us =
        std::max(p.p50_delay_us, es.monitor().delay_percentile_est_us(i, 50));
    p.p99_delay_us =
        std::max(p.p99_delay_us, es.monitor().delay_percentile_est_us(i, 99));
  }
  return p;
}

TEST(BlockBatchSweep, DeterministicOutputsArePinnedExactly) {
  // 2,000 frames per stream.  Cycles per decision depend only on the
  // slot count (14 / 33 / 54); frames per decision is the burst size.
  const SweepPoint golden[] = {
      {false, 1, 4, 8000, 8000, 8000, 14, 1, 83643.661484253826,
       96551.079351543449},
      {true, 1, 4, 8000, 8000, 8000, 14, 1, 83643.661484253826,
       96551.079351543449},
      {true, 4, 4, 8000, 2000, 2000, 14, 4, 48022.560516469566,
       95074.686895392762},
      {true, 0, 4, 8000, 2000, 2000, 14, 4, 48022.560516469566,
       95074.686895392762},
      {false, 1, 16, 32000, 32000, 32000, 33, 1, 334737.51821382705,
       383513.9781659111},
      {true, 1, 16, 32000, 32000, 32000, 33, 1, 334737.51821382705,
       383513.9781659111},
      {true, 4, 16, 32000, 8000, 8000, 33, 4, 334737.51821382705,
       383513.9781659111},
      {true, 0, 16, 32000, 2000, 2000, 33, 16, 192086.16845357255,
       380482.87549935933},
      {false, 1, 32, 64000, 64000, 64000, 54, 1, 668382.3636829009,
       770046.05908581405},
      {true, 1, 32, 64000, 64000, 64000, 54, 1, 668382.3636829009,
       770046.05908581405},
      {true, 4, 32, 64000, 16000, 16000, 54, 4, 668489.03611206927,
       770046.05908581405},
      {true, 0, 32, 64000, 2000, 2000, 54, 32, 384168.26335962932,
       760593.03435779887},
  };
  for (const SweepPoint& want : golden) {
    SCOPED_TRACE(::testing::Message()
                 << (want.block ? "block" : "wr") << " depth "
                 << want.batch_depth << ", " << want.streams << " streams");
    const SweepPoint got =
        run_sweep_point(want.block, want.batch_depth, want.streams);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.hw_cycles_per_decision, want.hw_cycles_per_decision);
    EXPECT_EQ(got.frames_per_decision, want.frames_per_decision);
    EXPECT_EQ(got.p50_delay_us, want.p50_delay_us);
    EXPECT_EQ(got.p99_delay_us, want.p99_delay_us);
  }
}

}  // namespace
}  // namespace ss
