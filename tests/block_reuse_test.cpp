// block_reuse_test.cpp — block reuse against the full network, every
// decision.
//
// A 32-slot kTagOnly bitonic chip on the AVX-512 kernel may complete a
// decision by re-placing its few dirty slots in the previous decision's
// sort instead of running the 15 passes, when that sort provably still
// orders every clean slot (DESIGN.md §12, "Block reuse").  The campaigns
// here drive such chips in WR mode and in BA mode at depths 1, 4 and 0
// with sparse pushes (0-2 slots a decision), vtime wrapping past 2^16
// several times, mid-run load_slot()s, stamps pushed out of the serial
// half-window, drain episodes and idle tails.  After every decision the
// default chip must equal a kReference chip fed the same calls and a
// fresh reference network loaded in slot order: lane files, grants,
// blocks, drops, slot registers and counters.  The suite also recomputes
// every reuse condition from outside the chip and demands that the
// re-place ran on exactly the decisions that meet them all, and that each
// fallback condition was hit.  Where the fitted kernel is not AVX-512
// (SS_SIMD=REF or AVX2) the chip never re-places and the campaigns reduce
// to the lock-step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hw/scheduler_chip.hpp"
#include "hw/shuffle.hpp"
#include "telemetry/audit.hpp"
#include "util/rng.hpp"

namespace ss::hw {
namespace {

constexpr unsigned kSlots = 32;
constexpr std::uint32_t kAll = 0xFFFFFFFFu;

bool avx512_network() {
  return ShuffleNetwork(kSlots, SortSchedule::kBitonic,
                        ComparisonMode::kTagOnly)
             .kernel() == simd::Kernel::kAvx512;
}

using Words = std::array<AttrWord, kSlots>;

Words words_of(const SchedulerChip& chip) {
  Words w;
  for (unsigned s = 0; s < kSlots; ++s) {
    w[s] = chip.slot(static_cast<SlotId>(s)).attrs();
  }
  return w;
}

std::uint32_t pending_of(const Words& w) {
  std::uint32_t m = 0;
  for (unsigned s = 0; s < kSlots; ++s) {
    m |= static_cast<std::uint32_t>(w[s].pending) << s;
  }
  return m;
}

// The exact horizon test, recomputed: every deadline and every arrival
// stamp of both word sets lies in one serial half-window.
bool in_half_window(const Words& a, const Words& b) {
  const auto spread_ok = [&](auto field) {
    const auto ref = static_cast<std::uint16_t>(field(a[0]));
    int lo = 0;
    int hi = 0;
    for (const Words* ws : {&a, &b}) {
      for (const AttrWord& w : *ws) {
        const auto o = static_cast<std::int16_t>(
            static_cast<std::uint16_t>(field(w) - ref));
        lo = std::min<int>(lo, o);
        hi = std::max<int>(hi, o);
      }
    }
    return hi - lo < 0x8000;
  };
  return spread_ok([](const AttrWord& w) { return w.deadline.raw(); }) &&
         spread_ok([](const AttrWord& w) { return w.arrival.raw(); });
}

struct Campaign {
  bool block;
  unsigned depth;             ///< BA batch depth (0 = whole block)
  std::uint32_t audit_every;  ///< 0: no audit session on the default chip
  std::uint64_t decisions;
  std::uint64_t seed;
};

/// Why decisions that had a previous sort to reuse fell back to the
/// network (a decision can fail several conditions at once).
struct Fallbacks {
  std::uint64_t idle_lanes = 0;
  std::uint64_t too_dirty = 0;
  std::uint64_t sampled = 0;
  std::uint64_t horizon = 0;
};

struct Tally {
  std::uint64_t committed = 0;
  std::uint64_t eligible = 0;
  std::uint64_t reused = 0;
  Fallbacks fallbacks;
};

class Lockstep {
 public:
  explicit Lockstep(const Campaign& c)
      : c_(c),
        fast_(config(simd::KernelChoice::kAuto)),
        ref_(config(simd::KernelChoice::kReference)),
        net_(kSlots, SortSchedule::kBitonic, ComparisonMode::kTagOnly,
             simd::KernelChoice::kReference),
        session_(kSlots),
        rng_(c.seed) {
    if (c.audit_every != 0) {
      session_.set_sampling(c.audit_every, c.seed);
      fast_.attach_audit(&session_);
    }
    for (unsigned s = 0; s < kSlots; ++s) {
      load(static_cast<SlotId>(s), Deadline{0});
      push(static_cast<SlotId>(s), 8, near_arrival());
    }
  }

  Tally run() {
    const std::uint64_t d = c_.decisions;
    for (std::uint64_t i = 0; i < d; ++i) {
      const bool draining =
          (i >= d * 45 / 100 && i < d / 2) || i >= d * 97 / 100;
      if (i == d / 2) {
        // Re-admit the whole set after the drain episode: every slot
        // dirty at once.
        for (unsigned s = 0; s < kSlots; ++s) {
          load(static_cast<SlotId>(s), Deadline{fast_.vtime()});
          push(static_cast<SlotId>(s), 8, near_arrival());
        }
      } else if (!draining) {
        stimulate(i);
      }
      if (!decide(i)) break;
    }
    return tally_;
  }

 private:
  ChipConfig config(simd::KernelChoice k) const {
    ChipConfig cfg;
    cfg.slots = kSlots;
    cfg.cmp_mode = ComparisonMode::kTagOnly;
    cfg.schedule = SortSchedule::kBitonic;
    cfg.block_mode = c_.block;
    cfg.batch_depth = c_.depth;
    cfg.kernel = k;
    return cfg;
  }

  Arrival near_arrival() { return Arrival{rng_.below(64)}; }

  // Both chips receive every call; dirty_ mirrors the slots the chip
  // republishes at its next LOAD.  Periods 16 (slots 0-7), 32 (8-15) and
  // 64 (16-31) load the link exactly, so deadlines track vtime.
  void load(SlotId s, Deadline base, bool droppable = false) {
    SlotConfig sc;
    sc.mode = SlotMode::kEdf;
    sc.period = static_cast<std::uint16_t>(s < 8 ? 16 : (s < 16 ? 32 : 64));
    sc.droppable = droppable || rng_.chance(0.5);
    sc.initial_deadline = base + sc.period;
    fast_.load_slot(s, sc);
    ref_.load_slot(s, sc);
    dirty_ |= 1u << s;
  }

  void push(SlotId s, std::uint64_t requests, Arrival arrival) {
    for (std::uint64_t r = 0; r < requests; ++r) {
      fast_.push_request(s, arrival);
      ref_.push_request(s, arrival);
    }
    dirty_ |= 1u << s;
  }

  // Sparse stimulus: 0-2 slots a decision — an idle slot half the time,
  // else mostly the least-backlogged slot just granted — with a little
  // more work in all than a decision grants.
  void stimulate(std::uint64_t i) {
    const std::uint64_t per_decision =
        !c_.block ? 1 : (c_.depth == 0 ? kSlots : c_.depth);
    std::uint32_t idle = 0;
    for (unsigned s = 0; s < kSlots; ++s) {
      idle |= static_cast<std::uint32_t>(
                  fast_.slot(static_cast<SlotId>(s)).backlog() == 0)
              << s;
    }
    idle &= ~quarantine_;
    const auto slots = rng_.below(3);
    for (std::uint64_t k = 0; k < slots; ++k) {
      auto s = static_cast<SlotId>(rng_.below(kSlots));
      if (idle != 0 && rng_.chance(0.5)) {
        s = static_cast<SlotId>(std::countr_zero(idle));
        idle &= idle - 1;
      } else if (!granted_.empty() && rng_.chance(0.9)) {
        s = granted_.front();
        for (const SlotId g : granted_) {
          if (fast_.slot(g).backlog() < fast_.slot(s).backlog()) s = g;
        }
      }
      if (((quarantine_ >> s) & 1u) != 0) continue;
      if (fast_.slot(s).backlog() == 0 && rng_.chance(0.02)) {
        // An arrival stamp half the clock away: out of the horizon until
        // this slot drains again, so it gets no further pushes till then.
        push(s, 1, Arrival{0x8000u + 64 + rng_.below(64)});
        quarantine_ |= 1u << s;
        continue;
      }
      push(s, 1 + rng_.below(2 * per_decision), near_arrival());
    }
    if (i == refix_at_) {
      load(refix_, Deadline{fast_.vtime()});
      push(refix_, 4, near_arrival());
    }
    if (i % 2048 == 1024) {
      // Mid-run reload.  One time in four its first deadline lies just
      // past the half-window: one late request, dropped, and a normal
      // reload 16 decisions later.
      const auto s = static_cast<SlotId>(rng_.below(kSlots));
      quarantine_ &= ~(1u << s);
      if (rng_.chance(0.25)) {
        load(s, Deadline{fast_.vtime() + 0x8000u + 64}, true);
        push(s, 1, near_arrival());
        refix_ = s;
        refix_at_ = i + 16;
      } else {
        load(s, Deadline{fast_.vtime()});
        if (rng_.chance(0.5)) push(s, 4, near_arrival());
      }
    }
  }

  // One decision on both chips and the reference network, compared.
  // Returns false after the first divergence.
  bool decide(std::uint64_t i) {
    const Words before = words_of(fast_);
    const std::uint32_t pend = pending_of(before);
    const std::uint32_t load_dirty = dirty_;
    if (pend != 0) {
      net_.load(before);
      net_.run_all();
    }
    std::array<std::uint64_t, kSlots> missed{};
    for (unsigned s = 0; s < kSlots; ++s) {
      missed[s] =
          fast_.slot(static_cast<SlotId>(s)).counters().missed_deadlines;
    }
    const std::uint64_t reused0 = fast_.reused_decisions();
    const std::uint64_t sampled0 = session_.sampler().sampled();

    fast_.run_decision_cycle(out_);
    ref_.run_decision_cycle(ref_out_);
    if (!same(i)) return false;

    // The LOAD cleared the dirty set; grants and misses refill it.
    if (!out_.idle) dirty_ = 0;
    granted_.clear();
    for (const Grant& g : out_.grants) {
      granted_.push_back(g.slot);
      dirty_ |= 1u << g.slot;
    }
    for (unsigned s = 0; s < kSlots; ++s) {
      const auto id = static_cast<SlotId>(s);
      if (fast_.slot(id).counters().missed_deadlines != missed[s]) {
        dirty_ |= 1u << s;
      }
      if (fast_.slot(id).backlog() == 0) quarantine_ &= ~(1u << s);
    }
    if (out_.idle) return true;

    // Every reuse condition, recomputed outside the chip.
    ++tally_.committed;
    const bool reused = fast_.reused_decisions() != reused0;
    if (have_prev_) {
      const bool sampled = session_.sampler().sampled() != sampled0;
      const bool all_pending = pending_of(prev_) == kAll && pend == kAll;
      const bool few_dirty = static_cast<unsigned>(std::popcount(
                                 load_dirty)) <= simd::kMaxReplaced;
      const bool horizon = in_half_window(prev_, before);
      Fallbacks& f = tally_.fallbacks;
      f.idle_lanes += static_cast<std::uint64_t>(!all_pending);
      f.too_dirty += static_cast<std::uint64_t>(!few_dirty);
      f.sampled += static_cast<std::uint64_t>(sampled);
      f.horizon += static_cast<std::uint64_t>(!horizon);
      const bool eligible =
          avx512_ && all_pending && few_dirty && !sampled && horizon;
      tally_.eligible += static_cast<std::uint64_t>(eligible);
      EXPECT_EQ(reused, eligible)
          << "decision " << i << ": all_pending " << all_pending
          << ", dirty " << std::popcount(load_dirty) << ", sampled "
          << sampled << ", horizon " << horizon;
      if (reused != eligible) return false;
    } else {
      EXPECT_FALSE(reused) << "decision " << i << ": nothing to reuse";
    }
    tally_.reused += static_cast<std::uint64_t>(reused);
    have_prev_ = true;
    prev_ = before;
    return true;
  }

  bool same(std::uint64_t i) {
    const ::testing::AssertionResult r = compare();
    EXPECT_TRUE(r) << "decision " << i;
    return r;
  }

  ::testing::AssertionResult compare() const {
    const auto fail = [](const char* what) {
      return ::testing::AssertionFailure() << what << " differ";
    };
    if (out_.idle != ref_out_.idle) return fail("idle verdicts");
    if (out_.circulated != ref_out_.circulated) return fail("circulations");
    if (out_.grants.size() != ref_out_.grants.size()) return fail("grants");
    for (std::size_t g = 0; g < out_.grants.size(); ++g) {
      const Grant& a = out_.grants[g];
      const Grant& b = ref_out_.grants[g];
      if (a.slot != b.slot || a.emit_vtime != b.emit_vtime ||
          a.met_deadline != b.met_deadline) {
        return fail("grants");
      }
    }
    if (out_.block != ref_out_.block) return fail("blocks");
    if (out_.drops != ref_out_.drops) return fail("drops");
    if (out_.hw_cycles != ref_out_.hw_cycles) return fail("hw_cycles");
    if (fast_.vtime() != ref_.vtime()) return fail("vtimes");
    if (fast_.network_comparisons() != ref_.network_comparisons()) {
      return fail("comparison counts");
    }
    for (unsigned s = 0; s < kSlots; ++s) {
      const auto id = static_cast<SlotId>(s);
      if (!(fast_.slot(id).attrs() == ref_.slot(id).attrs())) {
        return fail("slot registers");
      }
      if (!(fast_.slot(id).counters() == ref_.slot(id).counters())) {
        return fail("slot counters");
      }
    }
    if (!out_.idle) {
      const std::vector<AttrWord> lanes = fast_.last_block();
      if (lanes != ref_.last_block()) return fail("chip lane files");
      if (lanes != net_.lanes()) {
        return fail("lane file and slot-order network");
      }
    }
    return ::testing::AssertionSuccess();
  }

  Campaign c_;
  SchedulerChip fast_;
  SchedulerChip ref_;
  ShuffleNetwork net_;
  telemetry::AuditSession session_;
  Rng rng_;
  const bool avx512_ = avx512_network();
  DecisionOutcome out_;
  DecisionOutcome ref_out_;
  std::vector<SlotId> granted_;
  std::uint32_t dirty_ = 0;
  std::uint32_t quarantine_ = 0;
  SlotId refix_ = 0;
  std::uint64_t refix_at_ = ~std::uint64_t{0};
  bool have_prev_ = false;
  Words prev_{};
  Tally tally_;
};

// Runs a campaign and checks what it covered: on the AVX-512 kernel the
// re-place ran on most committed decisions (never at depth 0) and every
// fallback the campaign can reach was hit.
void run_campaign(const Campaign& c) {
  Lockstep lockstep(c);
  const Tally t = lockstep.run();
  if (::testing::Test::HasFailure()) return;
  const Fallbacks& f = t.fallbacks;
  for (const auto& [key, value] :
       {std::pair{"committed", t.committed}, {"reused", t.reused},
        {"fallback_idle_lanes", f.idle_lanes},
        {"fallback_too_dirty", f.too_dirty}, {"fallback_sampled", f.sampled},
        {"fallback_horizon", f.horizon}}) {
    ::testing::Test::RecordProperty(key, std::to_string(value));
  }
  EXPECT_GE(t.committed, c.decisions * 9 / 10);
  if (!avx512_network()) {
    EXPECT_EQ(t.reused, 0u);
    return;
  }
  EXPECT_EQ(t.reused, t.eligible);
  if (c.block && c.depth == 0) {
    EXPECT_EQ(t.reused, 0u);
  } else {
    EXPECT_GT(t.reused * 2, t.committed)
        << "re-placed " << t.reused << " of " << t.committed;
  }
  EXPECT_GT(f.idle_lanes, 0u);
  EXPECT_GT(f.horizon, 0u);
  EXPECT_GT(f.too_dirty, 0u);
  if (c.audit_every != 0) {
    EXPECT_GT(f.sampled, 0u);
  }
}

TEST(BlockReuse, WinnerOnlyMatchesTheNetwork) {
  run_campaign({false, 0, 0, 300'000, 1});
}

TEST(BlockReuse, DepthOneMatchesTheNetwork) {
  run_campaign({true, 1, 16, 300'000, 2});
}

TEST(BlockReuse, DepthFourMatchesTheNetwork) {
  run_campaign({true, 4, 0, 250'000, 3});
}

TEST(BlockReuse, WholeBlockMatchesTheNetwork) {
  run_campaign({true, 0, 16, 200'000, 4});
}

// --- ShuffleNetwork::replace on its own ---------------------------------

simd::LaneRegs random_bus(Rng& rng, std::uint16_t base) {
  simd::LaneRegs bus;
  for (unsigned s = 0; s < kSlots; ++s) {
    AttrWord w;
    // Narrow ranges so deadlines and arrivals tie often.
    w.deadline = Deadline{static_cast<std::uint64_t>(base) + rng.below(24)};
    w.arrival = Arrival{static_cast<std::uint64_t>(base) + rng.below(8)};
    w.loss_num = static_cast<Loss>(rng.below(256));
    w.loss_den = static_cast<Loss>(rng.below(256));
    w.id = static_cast<SlotId>(s);
    w.pending = true;
    bus.set(s, w);
  }
  return bus;
}

std::vector<AttrWord> network_order(const simd::LaneRegs& bus) {
  ShuffleNetwork net(kSlots, SortSchedule::kBitonic, ComparisonMode::kTagOnly,
                     simd::KernelChoice::kReference);
  net.load_lanes(bus, kAll);
  net.run_all();
  return net.lanes();
}

TEST(BlockReuse, ReplaceLeavesTheNetworkOrderAndItsCounters) {
  if (!avx512_network()) GTEST_SKIP() << "re-place needs the AVX-512 kernel";
  Rng rng(7);
  ShuffleNetwork net(kSlots, SortSchedule::kBitonic, ComparisonMode::kTagOnly);
  for (int trial = 0; trial < 2000; ++trial) {
    // Bases near the wrap and near the antipode keep serial order honest.
    const std::uint64_t bases[] = {0xFFF0u, 0x7FF0u, rng.below(65536)};
    const auto base = static_cast<std::uint16_t>(bases[trial % 3]);
    simd::LaneRegs bus = random_bus(rng, base);
    net.load_lanes(bus, kAll);
    net.run_all();
    std::uint32_t dirty = 0;
    const auto k = rng.below(simd::kMaxReplaced + 1);
    for (std::uint64_t j = 0; j < k; ++j) {
      const auto s = static_cast<unsigned>(rng.below(kSlots));
      dirty |= 1u << s;
      AttrWord w = bus.get(s);
      w.deadline = Deadline{static_cast<std::uint64_t>(base) + rng.below(24)};
      w.arrival = Arrival{static_cast<std::uint64_t>(base) + rng.below(8)};
      w.loss_num = static_cast<Loss>(rng.below(256));
      bus.set(s, w);
    }
    const std::uint64_t cmps = net.total_comparisons();
    const std::uint64_t pend = net.total_pending_comparisons();
    const std::uint64_t swaps = net.total_swaps();
    const std::uint64_t reuses = net.total_reuses();
    ASSERT_TRUE(net.replace(bus, kAll, dirty)) << "trial " << trial;
    ASSERT_EQ(net.lanes(), network_order(bus)) << "trial " << trial;
    EXPECT_TRUE(net.done());
    EXPECT_EQ(net.passes_executed(), net.total_passes());
    EXPECT_EQ(net.total_comparisons() - cmps, 240u);
    EXPECT_EQ(net.total_pending_comparisons() - pend, 240u);
    EXPECT_EQ(net.total_swaps(), swaps);
    EXPECT_EQ(net.total_reuses(), reuses + 1);
    // A re-place keeps the sort reusable.
    bus.deadline[0] = static_cast<std::uint16_t>(bus.deadline[0] + 1);
    ASSERT_TRUE(net.replace(bus, kAll, 1u));
    ASSERT_EQ(net.lanes(), network_order(bus)) << "trial " << trial;
  }
}

TEST(BlockReuse, ReplaceDeclinesAndLeavesTheLaneFile) {
  Rng rng(11);
  const simd::LaneRegs bus = random_bus(rng, 100);
  const auto sorted_net = [&](ComparisonMode mode, SortSchedule sched) {
    ShuffleNetwork net(kSlots, sched, mode);
    net.load_lanes(bus, kAll);
    net.run_all();
    return net;
  };
  const auto declines = [&](ShuffleNetwork& net, const simd::LaneRegs& b,
                            std::uint32_t pending, std::uint32_t dirty) {
    const std::vector<AttrWord> lanes = net.lanes();
    const std::uint64_t reuses = net.total_reuses();
    const bool took = net.replace(b, pending, dirty);
    return !took && net.lanes() == lanes && net.total_reuses() == reuses;
  };

  // Configurations the re-place never serves.
  ShuffleNetwork dwcs = sorted_net(ComparisonMode::kDwcsFull,
                                   SortSchedule::kBitonic);
  EXPECT_TRUE(declines(dwcs, bus, kAll, 1u));
  ShuffleNetwork statics = sorted_net(ComparisonMode::kStatic,
                                      SortSchedule::kBitonic);
  EXPECT_TRUE(declines(statics, bus, kAll, 1u));
  ShuffleNetwork shuffle = sorted_net(ComparisonMode::kTagOnly,
                                      SortSchedule::kPerfectShuffle);
  EXPECT_TRUE(declines(shuffle, bus, kAll, 1u));
  ShuffleNetwork odd_even = sorted_net(ComparisonMode::kTagOnly,
                                       SortSchedule::kOddEven);
  EXPECT_TRUE(declines(odd_even, bus, kAll, 1u));
  ShuffleNetwork ref(kSlots, SortSchedule::kBitonic, ComparisonMode::kTagOnly,
                     simd::KernelChoice::kReference);
  ref.load_lanes(bus, kAll);
  ref.run_all();
  EXPECT_TRUE(declines(ref, bus, kAll, 1u));

  if (!avx512_network()) return;
  ShuffleNetwork net = sorted_net(ComparisonMode::kTagOnly,
                                  SortSchedule::kBitonic);
  // Not a whole-decision sort: a LOAD, or a single step.
  net.load_lanes(bus, kAll);
  EXPECT_TRUE(declines(net, bus, kAll, 1u));
  net.step();
  net.run_all();
  EXPECT_TRUE(declines(net, bus, kAll, 1u));
  net.load_lanes(bus, kAll);
  net.run_all();
  // Idle lanes now, or at the sort's LOAD.
  EXPECT_TRUE(declines(net, bus, kAll & ~4u, 1u));
  ShuffleNetwork idle_before(kSlots, SortSchedule::kBitonic,
                             ComparisonMode::kTagOnly);
  idle_before.load_lanes(bus, kAll & ~4u);
  idle_before.run_all();
  EXPECT_TRUE(declines(idle_before, bus, kAll, 1u));
  // More dirty rows than kMaxReplaced.
  EXPECT_TRUE(declines(net, bus, (1u << (simd::kMaxReplaced + 1)) - 1, kAll));
  // A stamp outside the half-window, in the new rows or in the old sort.
  simd::LaneRegs far = bus;
  far.arrival[3] = static_cast<std::uint16_t>(far.arrival[3] + 0x8000u);
  EXPECT_TRUE(declines(net, far, kAll, 1u << 3));
  far = bus;
  far.deadline[3] = 100 + 0x800C;
  EXPECT_TRUE(declines(net, far, kAll, 1u << 3));
  // A bus row that does not carry its own slot id.
  simd::LaneRegs alias = bus;
  alias.id[5] = 6;
  EXPECT_TRUE(declines(net, alias, kAll, 1u << 5));
  // A dirty slot the previous sort does not hold once.
  simd::LaneRegs dup = bus;
  dup.id[5] = 6;
  ShuffleNetwork dup_net(kSlots, SortSchedule::kBitonic,
                         ComparisonMode::kTagOnly);
  dup_net.load_lanes(dup, kAll);
  dup_net.run_all();
  EXPECT_TRUE(declines(dup_net, bus, kAll, 1u << 5));
  // A sampled decision keeps the referee's per-comparison provenance.
  telemetry::AuditSession session(kSlots);
  net.attach_audit(&session.audit());
  EXPECT_TRUE(declines(net, bus, kAll, 1u));
  net.set_audit_live(false);
  EXPECT_TRUE(net.replace(bus, kAll, 1u));
}

// On a fully sorting schedule the block is the pending prefix of the lane
// file; the perfect-shuffle schedule compacts the pending lanes instead.
TEST(BlockReuse, SortedBlockIsThePendingPrefix) {
  Rng rng(5);
  for (const SortSchedule sched :
       {SortSchedule::kBitonic, SortSchedule::kOddEven,
        SortSchedule::kPerfectShuffle}) {
    for (const unsigned n : {4u, 16u, 32u}) {
      ShuffleNetwork net(n, sched, ComparisonMode::kDwcsFull);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<AttrWord> words(n);
        for (unsigned i = 0; i < n; ++i) {
          words[i].deadline = Deadline{rng.below(65536)};
          words[i].arrival = Arrival{rng.below(65536)};
          words[i].loss_num = static_cast<Loss>(rng.below(3));
          words[i].loss_den = static_cast<Loss>(rng.below(4));
          words[i].id = static_cast<SlotId>(i);
          words[i].pending = rng.chance(0.6);
        }
        net.load(words);
        net.run_all();
        std::vector<SlotId> want;
        for (const AttrWord& w : net.lanes()) {
          if (w.pending) want.push_back(w.id);
        }
        std::vector<SlotId> got;
        net.block_ids(got);
        ASSERT_EQ(got, want) << "n " << n << " trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace ss::hw
