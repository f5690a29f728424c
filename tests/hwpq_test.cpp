// hwpq_test.cpp — the related-work hardware priority-queue models:
// functional correctness against std::priority_queue, plus the cycle and
// area relationships Section 3's argument rests on.
#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <vector>

#include "hwpq/binary_heap_pq.hpp"
#include "hwpq/pipelined_heap_pq.hpp"
#include "hwpq/shift_register_pq.hpp"
#include "hwpq/systolic_pq.hpp"
#include "util/rng.hpp"

namespace ss::hwpq {
namespace {

enum class Kind { kBinary, kPipelined, kSystolic, kShift };

std::unique_ptr<HwPriorityQueue> make(Kind k, std::size_t cap) {
  switch (k) {
    case Kind::kBinary:
      return std::make_unique<BinaryHeapPq>(cap);
    case Kind::kPipelined:
      return std::make_unique<PipelinedHeapPq>(cap);
    case Kind::kSystolic:
      return std::make_unique<SystolicPq>(cap);
    case Kind::kShift:
      return std::make_unique<ShiftRegisterPq>(cap);
  }
  return nullptr;
}

class HwPqSuite : public ::testing::TestWithParam<Kind> {};

TEST_P(HwPqSuite, EmptyPopsNothing) {
  auto pq = make(GetParam(), 16);
  EXPECT_FALSE(pq->pop_min().has_value());
  EXPECT_EQ(pq->size(), 0u);
  EXPECT_EQ(pq->capacity(), 16u);
}

TEST_P(HwPqSuite, SingleElementRoundTrip) {
  auto pq = make(GetParam(), 16);
  pq->push({42, 7});
  EXPECT_EQ(pq->size(), 1u);
  const auto e = pq->pop_min();
  ASSERT_TRUE(e);
  EXPECT_EQ(e->key, 42u);
  EXPECT_EQ(e->id, 7u);
  EXPECT_EQ(pq->size(), 0u);
}

TEST_P(HwPqSuite, DrainsInKeyOrder) {
  auto pq = make(GetParam(), 64);
  Rng rng(101);
  for (int i = 0; i < 64; ++i) {
    pq->push({rng.below(1000), static_cast<std::uint32_t>(i)});
  }
  std::uint64_t last = 0;
  while (auto e = pq->pop_min()) {
    EXPECT_GE(e->key, last);
    last = e->key;
  }
}

TEST_P(HwPqSuite, MatchesStdPriorityQueueUnderMixedOps) {
  auto pq = make(GetParam(), 256);
  using StdPq = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                    std::greater<>>;
  StdPq ref;
  Rng rng(102);
  for (int op = 0; op < 5000; ++op) {
    if ((ref.empty() || rng.chance(0.6)) && ref.size() < 250) {
      const std::uint64_t k = rng.below(100000);
      pq->push({k, 0});
      ref.push(k);
    } else {
      const auto e = pq->pop_min();
      ASSERT_TRUE(e);
      ASSERT_EQ(e->key, ref.top());
      ref.pop();
    }
    ASSERT_EQ(pq->size(), ref.size());
  }
}

TEST_P(HwPqSuite, OverflowThrows) {
  auto pq = make(GetParam(), 4);
  for (int i = 0; i < 4; ++i) pq->push({1, 0});
  EXPECT_THROW(pq->push({1, 0}), std::length_error);
}

TEST_P(HwPqSuite, CyclesAdvanceWithWork) {
  auto pq = make(GetParam(), 32);
  const auto c0 = pq->cycles();
  for (int i = 0; i < 16; ++i) pq->push({static_cast<std::uint64_t>(i), 0});
  for (int i = 0; i < 16; ++i) pq->pop_min();
  EXPECT_GT(pq->cycles(), c0);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, HwPqSuite,
                         ::testing::Values(Kind::kBinary, Kind::kPipelined,
                                           Kind::kSystolic, Kind::kShift),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Kind::kBinary: return "BinaryHeap";
                             case Kind::kPipelined: return "PipelinedHeap";
                             case Kind::kSystolic: return "Systolic";
                             case Kind::kShift: return "ShiftRegister";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------ structure-specific

TEST(BinaryHeapPq, OpsCostLogCycles) {
  BinaryHeapPq pq(1024);
  for (int i = 0; i < 512; ++i) pq.push({static_cast<std::uint64_t>(i), 0});
  const auto before = pq.cycles();
  pq.push({0, 0});  // 512 live -> ceil(log2(513)) = 10 levels, 2 cycles each
  EXPECT_EQ(pq.cycles() - before, 2 * 10u);
}

TEST(PipelinedHeapPq, SustainsOneOpPerCycleWhenHot) {
  PipelinedHeapPq pq(1024);
  pq.push({1, 0});  // pays the fill latency
  const auto after_fill = pq.cycles();
  for (int i = 0; i < 100; ++i) pq.push({static_cast<std::uint64_t>(i), 0});
  EXPECT_EQ(pq.cycles() - after_fill, 100u);  // 1 cycle each
}

TEST(PipelinedHeapPq, DrainRefillPaysLatencyAgain) {
  PipelinedHeapPq pq(64);
  pq.push({1, 0});
  pq.pop_min();
  pq.pop_min();  // idle poll drains the pipeline
  const auto c = pq.cycles();
  pq.push({2, 0});
  EXPECT_EQ(pq.cycles() - c, pq.pipeline_depth());
}

TEST(SystolicAndShift, ConstantCycleOps) {
  SystolicPq sys(64);
  ShiftRegisterPq shf(64);
  for (int i = 0; i < 32; ++i) {
    sys.push({static_cast<std::uint64_t>(64 - i), 0});
    shf.push({static_cast<std::uint64_t>(64 - i), 0});
  }
  EXPECT_EQ(sys.cycles(), 32u);
  EXPECT_EQ(shf.cycles(), 32u);
}

TEST(ShiftRegisterPq, FifoAmongEqualKeys) {
  ShiftRegisterPq pq(8);
  pq.push({5, 1});
  pq.push({5, 2});
  pq.push({5, 3});
  EXPECT_EQ(pq.pop_min()->id, 1u);
  EXPECT_EQ(pq.pop_min()->id, 2u);
  EXPECT_EQ(pq.pop_min()->id, 3u);
}

// -------------------------------------------- the Section-3 comparisons

TEST(Section3, ShuffleUsesFewerComparatorsThanPerElementStructures) {
  // ShareStreams: N/2 Decision blocks.  Systolic / shift-register: one per
  // element.  The area ratio is what "conserves area" means.
  for (unsigned n : {8u, 16u, 32u}) {
    SystolicPq sys(n);
    ShiftRegisterPq shf(n);
    // ShareStreams fabric area for the same N (registers + N/2 decisions).
    const unsigned shares =
        n * 150 + (n / 2) * 190 + 22 + n * 10;
    EXPECT_LT(shares, sys.area_slices(n));
    EXPECT_LT(shares, shf.area_slices(n));
  }
}

TEST(Section3, ResortCostsOrderAsThePaperArgues) {
  // Window-constrained updates force a per-decision-cycle re-sort: the
  // heap's rebuild dwarfs the shuffle's log2(N) recirculation passes.
  BinaryHeapPq heap(64);
  SystolicPq sys(64);
  for (unsigned n : {16u, 32u, 64u}) {
    const auto shuffle_passes = [](unsigned m) {
      unsigned p = 0;
      while ((1u << p) < m) ++p;
      return p;
    }(n);
    EXPECT_GT(heap.resort_cycles(n), static_cast<std::uint64_t>(n));
    EXPECT_EQ(sys.resort_cycles(n), n);
    EXPECT_LT(shuffle_passes, sys.resort_cycles(n));
  }
}

TEST(Section3, PipelinedHeapCheaperPerOpButMoreAreaThanBinary) {
  PipelinedHeapPq pip(256);
  BinaryHeapPq bin(256);
  EXPECT_GT(pip.area_slices(256), bin.area_slices(256));
  // Hot-pipeline ops beat the sequential heap's 2log(n).
  for (int i = 0; i < 100; ++i) {
    pip.push({static_cast<std::uint64_t>(i), 0});
    bin.push({static_cast<std::uint64_t>(i), 0});
  }
  EXPECT_LT(pip.cycles(), bin.cycles());
}

TEST(Section3, NamesAreDistinct) {
  EXPECT_NE(BinaryHeapPq(4).name(), PipelinedHeapPq(4).name());
  EXPECT_NE(SystolicPq(4).name(), ShiftRegisterPq(4).name());
}

}  // namespace
}  // namespace ss::hwpq
