// pifo_equivalence_test.cpp — the rank layer's central claims, pinned.
//
// 1. EXACT EQUIVALENCE: every discipline expressed as a rank function
//    (src/pifo/rank_library.hpp) run on an exact PIFO over each of the
//    four hardware priority-queue structures serves packets in EXACTLY
//    the order of its bespoke sched/ implementation — packet for packet
//    across 10k-packet randomized differential campaigns.  This is the
//    PIFO thesis ("scheduling disciplines are rank functions + one
//    priority queue") made machine-checkable against independently
//    written implementations.
//
// 2. SP-PIFO PROPERTIES: the bucketed approximation is NOT exact, but
//    obeys crisp invariants — single-band degenerates to FIFO, monotone
//    rank input suffers zero inversions, descending input realizes the
//    worst case exactly, band bounds stay monotone under adversarial
//    adaptation, and conservation holds against the bespoke discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hwpq/binary_heap_pq.hpp"
#include "pifo/exact_pifo.hpp"
#include "pifo/rank_discipline.hpp"
#include "pifo/rank_library.hpp"
#include "pifo/sp_pifo.hpp"
#include "testing/rank_equivalence.hpp"
#include "util/rng.hpp"

namespace {

using namespace ss;
using namespace ss::testing;

constexpr std::size_t kCampaignPackets = 10000;
constexpr std::uint32_t kStreams = 6;

/// Varied per-stream setups: weights/rates 1,2,4,8 (power-of-two — the
/// exactness precondition), distinct EDF periods and offsets, distinct
/// static-priority levels.
std::vector<StreamSetup> campaign_streams() {
  std::vector<StreamSetup> v(kStreams);
  for (std::uint32_t i = 0; i < kStreams; ++i) {
    v[i].period = static_cast<std::uint16_t>(1 + i);
    v[i].loss_den = static_cast<std::uint8_t>(i + 1);  // levels 1..6
    v[i].initial_deadline = 1 + 3 * i;
  }
  return v;
}

/// A 10k-packet randomized op stream: bursty arrivals over kStreams
/// streams with varied sizes, interleaved with service, then drained by
/// run_rank_ops.  Pure function of `seed`.
std::vector<RankOp> campaign_ops(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RankOp> ops;
  ops.reserve(2 * kCampaignPackets);
  std::uint64_t enqueued = 0, dequeued = 0, now = 0;
  while (enqueued < kCampaignPackets) {
    const std::uint64_t burst =
        std::min<std::uint64_t>(1 + rng.below(8), kCampaignPackets - enqueued);
    for (std::uint64_t b = 0; b < burst; ++b) {
      RankOp op;
      op.enqueue = true;
      op.pkt.stream = static_cast<std::uint32_t>(rng.below(kStreams));
      op.pkt.bytes = static_cast<std::uint32_t>(64 + 64 * rng.below(23));
      op.pkt.arrival_ns = now;
      op.pkt.seq = enqueued++;
      now += rng.below(3);
      ops.push_back(op);
    }
    // Serve a comparable amount so the backlog stays bounded but is often
    // non-trivial (deep backlogs are where pick order can go wrong).
    const std::uint64_t serves = rng.below(burst + 4);
    for (std::uint64_t s = 0; s < serves && dequeued < enqueued; ++s) {
      ops.push_back(RankOp{});
      ++dequeued;
    }
  }
  return ops;
}

constexpr RankBackend kExactBackends[] = {
    RankBackend::kBinaryHeap,
    RankBackend::kPipelinedHeap,
    RankBackend::kSystolic,
    RankBackend::kShiftRegister,
};

class RankEquivalence : public ::testing::TestWithParam<RankDisc> {};

// The tentpole assertion: 10k packets, every exact substrate, packet for
// packet.  Three seeds per (discipline, backend) point.
TEST_P(RankEquivalence, MatchesBespokeOnEveryExactSubstrate) {
  const std::vector<StreamSetup> streams = campaign_streams();
  for (const RankBackend backend : kExactBackends) {
    for (std::uint64_t seed : {11u, 22u, 33u}) {
      const std::vector<RankOp> ops = campaign_ops(seed);
      RankConfig cfg;
      cfg.enabled = true;
      cfg.disc = GetParam();
      cfg.backend = backend;
      RankHarness h = make_rank_harness(cfg, streams, kCampaignPackets + 8);
      const RankDiffOutcome out = run_rank_ops(h, ops);
      ASSERT_FALSE(out.diverged)
          << h.fn->name() << " on " << h.backend->name() << " seed " << seed
          << ": op " << out.op_index << ": " << out.detail;
      EXPECT_EQ(out.served, kCampaignPackets);
      // A true PIFO admits no inverted pops, by definition.
      EXPECT_EQ(out.inversions, 0u);
    }
  }
}

// The same campaigns through the RankDiscipline adapter must behave
// identically to the harness path (the adapter adds nothing but plumbing).
TEST_P(RankEquivalence, AdapterServesIdenticallyToBespoke) {
  const std::vector<StreamSetup> streams = campaign_streams();
  RankConfig cfg;
  cfg.enabled = true;
  cfg.disc = GetParam();
  cfg.backend = RankBackend::kBinaryHeap;
  RankHarness h = make_rank_harness(cfg, streams, kCampaignPackets + 8);
  pifo::RankDiscipline adapter(std::move(h.fn), std::move(h.backend));

  const std::vector<RankOp> ops = campaign_ops(44);
  for (const RankOp& op : ops) {
    if (op.enqueue) {
      adapter.enqueue(op.pkt);
      h.bespoke->enqueue(op.pkt);
    } else {
      ASSERT_EQ(adapter.dequeue(0), h.bespoke->dequeue(0));
    }
  }
  while (adapter.backlog() > 0 || h.bespoke->backlog() > 0) {
    ASSERT_EQ(adapter.dequeue(0), h.bespoke->dequeue(0));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, RankEquivalence,
                         ::testing::Values(RankDisc::kFcfs,
                                           RankDisc::kStaticPrio,
                                           RankDisc::kEdf, RankDisc::kWfq,
                                           RankDisc::kVirtualClock,
                                           RankDisc::kSfq),
                         [](const auto& param_info) {
                           return std::string(
                               rank_disc_name(param_info.param));
                         });

// ---------------------------------------------------------------- SP-PIFO

TEST(SpPifoProperty, SingleBandDegeneratesToFifo) {
  pifo::SpPifo q(64, 1);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 64; ++i) {
    sched::Pkt p;
    p.seq = i;
    q.push(p, rng.below(1000));  // arbitrary ranks; one band ignores them
  }
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto r = q.pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->pkt.seq, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(SpPifoProperty, MonotoneRankInputPopsInOrder) {
  pifo::SpPifo q(256, 8);
  for (std::uint64_t i = 0; i < 256; ++i) {
    sched::Pkt p;
    p.seq = i;
    q.push(p, 10 * i);
  }
  // Non-decreasing admission ranks can never be trapped behind a larger
  // rank, so the pop order is exactly the rank order.
  std::uint64_t last = 0;
  while (const auto r = q.pop()) {
    EXPECT_GE(r->rank, last);
    last = r->rank;
  }
  EXPECT_EQ(q.pushdowns(), 0u);
}

TEST(SpPifoProperty, DescendingRankInputRealizesTheWorstCase) {
  // Strictly descending ranks are SP-PIFO's adversarial input: the first
  // `bands` pushes stake out one band each (push-up on ever-lower
  // bounds), and every later push undercuts band 0 and triggers a
  // push-down.  The pop order is then fully determined: band 0 drains
  // FIFO (seq 7, 8, ..., N-1), then bands 1..7 pop the stake-out packets
  // in reverse push order (seq 6, 5, ..., 0).
  constexpr std::uint64_t kN = 128;
  constexpr unsigned kBands = 8;
  pifo::SpPifo q(kN, kBands);
  for (std::uint64_t i = 0; i < kN; ++i) {
    sched::Pkt p;
    p.seq = i;
    q.push(p, 100000 - 100 * i);
  }
  EXPECT_EQ(q.pushups(), std::uint64_t{kBands});
  EXPECT_EQ(q.pushdowns(), kN - kBands);
  std::vector<std::uint64_t> expected;
  expected.push_back(kBands - 1);
  for (std::uint64_t s = kBands; s < kN; ++s) expected.push_back(s);
  for (std::uint64_t s = kBands - 1; s-- > 0;) expected.push_back(s);
  std::vector<std::uint64_t> got;
  while (const auto r = q.pop()) got.push_back(r->pkt.seq);
  EXPECT_EQ(got, expected);
}

TEST(SpPifoProperty, BoundsStayMonotoneUnderAdversarialRanks) {
  pifo::SpPifo q(4096, 8);
  Rng rng(77);
  std::uint64_t pushed = 0;
  for (int i = 0; i < 4000; ++i) {
    if (pushed < 4096 && (q.size() == 0 || rng.chance(0.6))) {
      sched::Pkt p;
      p.seq = pushed++;
      // Heavy-tailed-ish adversarial ranks, including repeated zeros that
      // force push-down to the absolute floor (the underflow corner).
      const std::uint64_t r = rng.chance(0.1) ? 0 : rng.below(1u << 20);
      q.push(p, r);
    } else {
      (void)q.pop();
    }
    for (unsigned b = 0; b + 1 < q.bands(); ++b) {
      ASSERT_LE(q.bound(b), q.bound(b + 1)) << "after op " << i;
    }
  }
  EXPECT_GT(q.pushdowns(), 0u);
}

TEST(SpPifoProperty, ConservesPacketsAgainstBespokeWfq) {
  RankConfig cfg;
  cfg.enabled = true;
  cfg.disc = RankDisc::kWfq;
  cfg.backend = RankBackend::kSpPifo;
  cfg.bands = 4;
  RankHarness h =
      make_rank_harness(cfg, campaign_streams(), kCampaignPackets + 8);
  const RankDiffOutcome out = run_rank_ops(h, campaign_ops(55));
  EXPECT_FALSE(out.diverged) << out.detail;
  EXPECT_EQ(out.served, kCampaignPackets);
  // 4 bands under a 6-weight WFQ rank stream: inversions happen (that is
  // the approximation), but run_rank_ops checked conservation.
  EXPECT_GT(out.inversions, 0u);
}

// ------------------------------------------------------ exact-PIFO model

TEST(ExactPifo, InheritsCycleAndAreaModelFromSubstrate) {
  pifo::ExactPifo pifo(hwpq::PqKind::kBinaryHeap, 32);
  EXPECT_EQ(pifo.cycles(), 0u);
  for (std::uint64_t i = 0; i < 16; ++i) {
    sched::Pkt p;
    p.seq = i;
    pifo.push(p, 1000 - i);
  }
  EXPECT_GT(pifo.cycles(), 0u);  // heap cycles accrue through the facade
  hwpq::BinaryHeapPq bare(32);
  EXPECT_EQ(pifo.area_slices(), bare.area_slices(32));
  EXPECT_EQ(pifo.name(), "exact-pifo/binary-heap");
}

TEST(ExactPifo, SlotTableRecyclesAcrossFullDrains) {
  // Capacity-bound churn: fill, drain, refill repeatedly; the slot
  // freelist must hand every packet back intact.
  pifo::ExactPifo pifo(hwpq::PqKind::kShiftRegister, 8);
  Rng rng(3);
  std::uint64_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      sched::Pkt p;
      p.stream = static_cast<std::uint32_t>(rng.below(4));
      p.seq = seq++;
      pifo.push(p, rng.below(16));
    }
    std::uint64_t last_rank = 0;
    std::vector<std::uint64_t> seqs;
    while (const auto r = pifo.pop()) {
      EXPECT_GE(r->rank, last_rank);
      last_rank = r->rank;
      seqs.push_back(r->pkt.seq);
    }
    EXPECT_EQ(seqs.size(), 8u);  // conservation per round
  }
}

}  // namespace
