// aggregation_wrr_test.cpp — the Stream-processor weighted-round-robin
// credit scheme behind streamlet aggregation (Section 5.1 / Figure 10).
//
// The properties that make a credit scheme a *fair* WRR:
//   * boundedness — at every prefix of the grant stream, each set's
//     service deviates from its weight share by at most a constant
//     (credits cannot accumulate without bound);
//   * deterministic tie-breaking — equal-credit sets are served
//     lowest-index-first, so equal weights produce plain round-robin;
//   * convergence — long-run set shares equal weight proportions exactly
//     (Figure 10's set 1 at double the bandwidth of set 2);
//   * plain RR within a set, independent across slots.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/aggregation.hpp"

namespace ss::core {
namespace {

TEST(AggregationWrr, EqualWeightsAreLowestIndexFirstRoundRobin) {
  AggregationManager am;
  const auto slot = am.bind_slot({{1, 1}, {1, 1}, {1, 1}});
  // Equal weights, equal credits every round: the deterministic tie-break
  // must serve sets 0,1,2,0,1,2,... — never reordering within a cycle.
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t expect = 0; expect < 3; ++expect) {
      const auto pick = am.on_grant(slot);
      ASSERT_EQ(pick.set, expect) << "round " << round;
    }
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(am.set_grants(slot, s), 50u);
  }
}

TEST(AggregationWrr, SkewedWeightsConvergeToExactShares) {
  AggregationManager am;
  const auto slot = am.bind_slot({{1, 3}, {1, 1}});  // 3:1, Figure-10 style
  constexpr int kGrants = 4000;
  for (int g = 0; g < kGrants; ++g) am.on_grant(slot);
  EXPECT_EQ(am.set_grants(slot, 0), 3000u);
  EXPECT_EQ(am.set_grants(slot, 1), 1000u);
}

TEST(AggregationWrr, ServiceLagIsBoundedAtEveryPrefix) {
  // Weighted fairness is a prefix property, not just an average: at every
  // point in the grant stream each set's service must sit within one
  // round of its ideal weight share.  Unbounded credit accumulation (the
  // classic WRR bug) would show up here as a drift growing with G.
  AggregationManager am;
  const std::vector<StreamletSet> sets = {{2, 5}, {1, 2}, {3, 1}};
  const auto slot = am.bind_slot(sets);
  const double total_w = 5 + 2 + 1;
  std::vector<std::uint64_t> served(sets.size(), 0);
  for (int g = 1; g <= 5000; ++g) {
    const auto pick = am.on_grant(slot);
    ASSERT_LT(pick.set, sets.size());
    ++served[pick.set];
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const double ideal =
          static_cast<double>(g) * sets[s].weight / total_w;
      EXPECT_LE(std::abs(static_cast<double>(served[s]) - ideal),
                total_w / sets[s].weight + 1.0)
          << "set " << s << " after " << g << " grants";
    }
  }
}

TEST(AggregationWrr, PlainRoundRobinWithinASet) {
  AggregationManager am;
  const auto slot = am.bind_slot({{4, 1}});
  for (int cycle = 0; cycle < 25; ++cycle) {
    for (std::uint32_t expect = 0; expect < 4; ++expect) {
      const auto pick = am.on_grant(slot);
      ASSERT_EQ(pick.set, 0u);
      ASSERT_EQ(pick.streamlet, expect) << "cycle " << cycle;
    }
  }
  for (std::uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(am.grants(slot)[q], 25u);
  }
}

TEST(AggregationWrr, StreamletIndicesAreSlotGlobalAcrossSets) {
  AggregationManager am;
  const auto slot = am.bind_slot({{2, 1}, {3, 1}});
  ASSERT_EQ(am.streamlet_count(slot), 5u);
  std::vector<std::uint64_t> seen(5, 0);
  for (int g = 0; g < 500; ++g) {
    const auto pick = am.on_grant(slot);
    ASSERT_LT(pick.streamlet, 5u);
    // Set 0 owns global indices [0,2), set 1 owns [2,5).
    if (pick.set == 0) {
      ASSERT_LT(pick.streamlet, 2u);
    }
    if (pick.set == 1) {
      ASSERT_GE(pick.streamlet, 2u);
    }
    ++seen[pick.streamlet];
  }
  // Equal set weights, RR within sets: 250 grants per set, spread evenly.
  EXPECT_EQ(seen[0], 125u);
  EXPECT_EQ(seen[1], 125u);
  for (int q = 2; q < 5; ++q) {
    EXPECT_NEAR(static_cast<double>(seen[q]), 250.0 / 3.0, 1.0);
  }
}

TEST(AggregationWrr, SlotsAreIndependent) {
  AggregationManager am;
  const auto a = am.bind_slot({{1, 2}, {1, 1}});
  const auto b = am.bind_slot({{1, 1}, {1, 1}});
  // Interleave grants; each slot's WRR state must advance independently.
  for (int g = 0; g < 300; ++g) {
    am.on_grant(a);
    if (g % 3 == 0) am.on_grant(b);
  }
  EXPECT_EQ(am.set_grants(a, 0), 200u);
  EXPECT_EQ(am.set_grants(a, 1), 100u);
  EXPECT_EQ(am.set_grants(b, 0), 50u);
  EXPECT_EQ(am.set_grants(b, 1), 50u);
}

}  // namespace
}  // namespace ss::core
