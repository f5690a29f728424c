// shuffle_test.cpp — the recirculating shuffle-exchange network.
//
// Central properties:
//  * every pass is a perfect (or near-perfect) matching of lanes — the mux
//    programming never reads a lane twice;
//  * lane contents stay a permutation of the loaded words (compare-
//    exchange can reorder, never duplicate or drop);
//  * the paper's log2(N)-pass schedule ALWAYS places the true maximum-
//    priority stream in lane 0 (the tournament property WR relies on);
//  * the bitonic schedule fully sorts for every input (it is a sorting
//    network, verified by the 0-1 principle on exhaustive binary inputs
//    for small N plus randomized checks for larger N);
//  * odd-even transposition sorts in N passes;
//  * the log2(N) shuffle schedule is NOT a full sorting network — the
//    documented fidelity caveat — demonstrated by a concrete 4-input
//    counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "dwcs/ordering.hpp"
#include "hw/shuffle.hpp"
#include "util/rng.hpp"

namespace ss::hw {
namespace {

std::vector<AttrWord> random_words(unsigned n, Rng& rng,
                                   std::uint64_t deadline_range = 50) {
  std::vector<AttrWord> v(n);
  for (unsigned i = 0; i < n; ++i) {
    v[i].deadline = Deadline{rng.below(deadline_range)};
    v[i].loss_num = static_cast<Loss>(rng.below(4));
    v[i].loss_den = static_cast<Loss>(1 + rng.below(4));
    v[i].arrival = Arrival{rng.below(16)};
    v[i].id = static_cast<SlotId>(i);
    v[i].pending = true;
  }
  return v;
}

bool outranks(const AttrWord& a, const AttrWord& b, ComparisonMode m) {
  return decide(a, b, m).a_wins;
}

std::multiset<std::uint64_t> packed(const std::vector<AttrWord>& v) {
  std::multiset<std::uint64_t> s;
  for (const auto& w : v) s.insert(pack(w));
  return s;
}

TEST(ShuffleNetwork, PassCounts) {
  EXPECT_EQ(schedule_passes(SortSchedule::kPerfectShuffle, 4), 2u);
  EXPECT_EQ(schedule_passes(SortSchedule::kPerfectShuffle, 8), 3u);
  EXPECT_EQ(schedule_passes(SortSchedule::kPerfectShuffle, 16), 4u);
  EXPECT_EQ(schedule_passes(SortSchedule::kPerfectShuffle, 32), 5u);
  EXPECT_EQ(schedule_passes(SortSchedule::kBitonic, 4), 3u);
  EXPECT_EQ(schedule_passes(SortSchedule::kBitonic, 8), 6u);
  EXPECT_EQ(schedule_passes(SortSchedule::kBitonic, 32), 15u);
  EXPECT_EQ(schedule_passes(SortSchedule::kOddEven, 8), 8u);
}

TEST(ShuffleNetwork, PairingsArePerfectMatchings) {
  for (const auto sched : {SortSchedule::kPerfectShuffle,
                           SortSchedule::kBitonic, SortSchedule::kOddEven}) {
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
      ShuffleNetwork net(n, sched, ComparisonMode::kDwcsFull);
      for (unsigned p = 0; p < net.total_passes(); ++p) {
        std::set<unsigned> touched;
        for (const PairSpec& pr : net.pairings(p)) {
          ASSERT_LT(pr.lo, pr.hi);
          ASSERT_LT(pr.hi, n);
          EXPECT_TRUE(touched.insert(pr.lo).second);
          EXPECT_TRUE(touched.insert(pr.hi).second);
        }
        // Shuffle & bitonic touch every lane; odd passes of odd-even leave
        // the two edge lanes idle.
        EXPECT_GE(touched.size(), n - 2);
      }
    }
  }
}

TEST(ShuffleNetwork, UsesHalfNDecisionBlocks) {
  // N/2 decision blocks per pass — the area argument of Section 3.
  for (unsigned n : {4u, 8u, 16u, 32u}) {
    ShuffleNetwork net(n, SortSchedule::kPerfectShuffle,
                       ComparisonMode::kDwcsFull);
    for (unsigned p = 0; p < net.total_passes(); ++p) {
      EXPECT_EQ(net.pairings(p).size(), n / 2);
    }
  }
}

TEST(ShuffleNetworkProperty, LanesStayAPermutation) {
  Rng rng(11);
  for (const auto sched : {SortSchedule::kPerfectShuffle,
                           SortSchedule::kBitonic, SortSchedule::kOddEven}) {
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
      ShuffleNetwork net(n, sched, ComparisonMode::kDwcsFull);
      for (int trial = 0; trial < 50; ++trial) {
        const auto words = random_words(n, rng);
        net.load(words);
        const auto before = packed(words);
        while (!net.done()) {
          net.step();
          const auto now = packed(net.lanes());
          ASSERT_EQ(before, now);
        }
        net.reset();
      }
    }
  }
}

TEST(ShuffleNetworkProperty, PaperScheduleAlwaysFindsTheMax) {
  // The tournament property: after log2(N) shuffle-exchange passes the
  // highest-priority word sits in lane 0, for every input.
  Rng rng(12);
  for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
    ShuffleNetwork net(n, SortSchedule::kPerfectShuffle,
                       ComparisonMode::kDwcsFull);
    for (int trial = 0; trial < 400; ++trial) {
      const auto words = random_words(n, rng, /*deadline_range=*/8);
      net.load(words);
      net.run_all();
      AttrWord expect = words[0];
      for (unsigned i = 1; i < n; ++i) {
        if (outranks(words[i], expect, ComparisonMode::kDwcsFull)) {
          expect = words[i];
        }
      }
      ASSERT_EQ(net.winner().id, expect.id)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(ShuffleNetworkProperty, TournamentMaxMatchesNetworkWinner) {
  Rng rng(13);
  for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
    ShuffleNetwork net(n, SortSchedule::kPerfectShuffle,
                       ComparisonMode::kDwcsFull);
    for (int trial = 0; trial < 200; ++trial) {
      const auto words = random_words(n, rng);
      unsigned cmps = 0;
      const AttrWord tmax =
          tournament_max(words, ComparisonMode::kDwcsFull, &cmps);
      EXPECT_EQ(cmps, n - 1);
      net.load(words);
      net.run_all();
      ASSERT_EQ(net.winner().id, tmax.id);
    }
  }
}

TEST(ShuffleNetworkProperty, BitonicFullySortsBinaryInputsExhaustively) {
  // 0-1 principle: a comparison network that sorts every binary sequence
  // sorts every sequence.  Exhaustive for N in {2,4,8}: 2^N inputs each.
  for (unsigned n : {2u, 4u, 8u}) {
    ShuffleNetwork net(n, SortSchedule::kBitonic, ComparisonMode::kTagOnly);
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::vector<AttrWord> words(n);
      for (unsigned i = 0; i < n; ++i) {
        words[i].deadline = Deadline{(mask >> i) & 1u};
        words[i].arrival = Arrival{0};
        words[i].id = static_cast<SlotId>(i);
        words[i].pending = true;
      }
      net.load(words);
      net.run_all();
      for (unsigned i = 1; i < n; ++i) {
        ASSERT_LE(net.lanes()[i - 1].deadline.raw(),
                  net.lanes()[i].deadline.raw())
            << "n=" << n << " mask=" << mask << " lane=" << i;
      }
      net.reset();
    }
  }
}

TEST(ShuffleNetworkProperty, BitonicFullySortsRandomInputs) {
  Rng rng(14);
  for (unsigned n : {4u, 8u, 16u, 32u}) {
    ShuffleNetwork net(n, SortSchedule::kBitonic, ComparisonMode::kDwcsFull);
    for (int trial = 0; trial < 300; ++trial) {
      const auto words = random_words(n, rng);
      net.load(words);
      net.run_all();
      const auto lanes = net.lanes();
      for (unsigned i = 1; i < n; ++i) {
        ASSERT_FALSE(
            outranks(lanes[i], lanes[i - 1], ComparisonMode::kDwcsFull))
            << "bitonic block out of order at lane " << i;
      }
    }
  }
}

TEST(ShuffleNetworkProperty, OddEvenFullySorts) {
  Rng rng(15);
  for (unsigned n : {2u, 4u, 8u, 16u}) {
    ShuffleNetwork net(n, SortSchedule::kOddEven, ComparisonMode::kDwcsFull);
    for (int trial = 0; trial < 200; ++trial) {
      const auto words = random_words(n, rng);
      net.load(words);
      net.run_all();
      const auto lanes = net.lanes();
      for (unsigned i = 1; i < n; ++i) {
        ASSERT_FALSE(
            outranks(lanes[i], lanes[i - 1], ComparisonMode::kDwcsFull));
      }
    }
  }
}

TEST(ShuffleNetwork, PaperScheduleIsNotAFullSorterCounterexample) {
  // Documented fidelity caveat (DESIGN.md): log2(N) passes cannot sort all
  // inputs.  Butterfly on [2,4,1,3] (deadlines): pass over bit1 pairs
  // (0,2),(1,3) -> [1,3,2,4]; pass over bit0 pairs (0,1),(2,3) ->
  // [1,3,2,4]: lanes 1 and 2 are inverted.
  std::vector<AttrWord> words(4);
  const std::uint64_t dl[4] = {2, 4, 1, 3};
  for (unsigned i = 0; i < 4; ++i) {
    words[i].deadline = Deadline{dl[i]};
    words[i].id = static_cast<SlotId>(i);
    words[i].pending = true;
  }
  ShuffleNetwork net(4, SortSchedule::kPerfectShuffle,
                     ComparisonMode::kTagOnly);
  net.load(words);
  net.run_all();
  EXPECT_EQ(net.winner().deadline.raw(), 1u);  // max-finding still correct
  bool sorted = true;
  for (unsigned i = 1; i < 4; ++i) {
    sorted = sorted && net.lanes()[i - 1].deadline.raw() <=
                           net.lanes()[i].deadline.raw();
  }
  EXPECT_FALSE(sorted) << "expected the documented partial-sort behaviour";
}

TEST(ShuffleNetwork, ActivityCountersTrackComparisonsAndSwaps) {
  Rng rng(21);
  ShuffleNetwork net(8, SortSchedule::kPerfectShuffle,
                     ComparisonMode::kTagOnly);
  EXPECT_EQ(net.total_comparisons(), 0u);
  const int kCycles = 40;
  for (int c = 0; c < kCycles; ++c) {
    net.load(random_words(8, rng));
    net.run_all();
  }
  // 3 passes x 4 decision blocks per decision cycle.
  EXPECT_EQ(net.total_comparisons(), kCycles * 3u * 4u);
  EXPECT_LE(net.total_swaps(), net.total_comparisons());
  EXPECT_GT(net.total_swaps(), 0u);
}

TEST(ShuffleNetwork, BitonicDoesMoreWorkThanShuffle) {
  // The activity (dynamic-power proxy) side of the exact-sort tradeoff.
  Rng rng(22);
  ShuffleNetwork shuffle(16, SortSchedule::kPerfectShuffle,
                         ComparisonMode::kTagOnly);
  ShuffleNetwork bitonic(16, SortSchedule::kBitonic,
                         ComparisonMode::kTagOnly);
  for (int c = 0; c < 50; ++c) {
    const auto words = random_words(16, rng);
    shuffle.load(words);
    shuffle.run_all();
    bitonic.load(words);
    bitonic.run_all();
  }
  EXPECT_GT(bitonic.total_comparisons(), shuffle.total_comparisons() * 2);
}

TEST(ShuffleNetwork, StepCountsAndDoneFlag) {
  ShuffleNetwork net(8, SortSchedule::kPerfectShuffle,
                     ComparisonMode::kTagOnly);
  Rng rng(16);
  net.load(random_words(8, rng));
  EXPECT_FALSE(net.done());
  EXPECT_EQ(net.passes_executed(), 0u);
  net.step();
  EXPECT_EQ(net.passes_executed(), 1u);
  net.run_all();
  EXPECT_TRUE(net.done());
  EXPECT_EQ(net.passes_executed(), 3u);
  net.reset();
  EXPECT_FALSE(net.done());
}

TEST(ShuffleNetwork, IdleLanesSinkToTheBottomWithBitonic) {
  // Pending slots must occupy the top of the block so block emission can
  // simply take a prefix.
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    auto words = random_words(8, rng);
    unsigned idle = 0;
    for (auto& w : words) {
      if (rng.chance(0.4)) {
        w.pending = false;
        ++idle;
      }
    }
    ShuffleNetwork net(8, SortSchedule::kBitonic, ComparisonMode::kDwcsFull);
    net.load(words);
    net.run_all();
    const auto lanes = net.lanes();
    for (unsigned i = 0; i < 8 - idle; ++i) {
      ASSERT_TRUE(lanes[i].pending) << "pending slot below an idle one";
    }
  }
}

}  // namespace
}  // namespace ss::hw
