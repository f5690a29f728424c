// simd_kernel_test.cpp — the branch-free SoA/SIMD decision kernels.
//
// Contracts pinned here:
//  * pack()/unpack() round-trip across all 54 attribute bits, including
//    the pending flag and the wrap-boundary deadline/arrival values, and
//    the checked-contract behaviour for out-of-range slot IDs (assert in
//    debug builds, saturate-to-top-slot in release);
//  * a ShuffleNetwork driven by each vector kernel the host supports
//    (AVX2, AVX-512) produces the exact lane sequence, winner and swap
//    count of the reference per-pair network, across every schedule,
//    mode, slot count and pending mixture — on random words, on
//    antipodal deadline pairs (distance exactly 0x8000, both orders) and
//    on duplicate-id lanes (the full-tie algebra);
//  * SS_SIMD token parsing, the dispatch/degradation rules and the fit
//    of one kernel per network.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "hw/decision_block.hpp"
#include "hw/fields.hpp"
#include "hw/shuffle.hpp"
#include "hw/simd_kernel.hpp"
#include "util/rng.hpp"

namespace ss::hw {
namespace {

// Random AttrWord exercising the full field ranges, with deliberate mass
// on the wrap boundaries (0, 0x7FFF, 0x8000, 0xFFFF) where the Serial<16>
// comparison is most delicate.
AttrWord random_word(Rng& rng, unsigned id_bound = kMaxSlots) {
  static constexpr std::uint16_t kEdges[] = {0x0000, 0x0001, 0x7FFF,
                                             0x8000, 0x8001, 0xFFFF};
  const auto pick16 = [&rng]() -> std::uint16_t {
    if (rng.below(4) == 0) return kEdges[rng.below(6)];
    return static_cast<std::uint16_t>(rng.below(0x10000));
  };
  AttrWord w;
  w.deadline = Deadline{pick16()};
  w.arrival = Arrival{pick16()};
  w.loss_num = static_cast<Loss>(rng.below(256));
  w.loss_den = static_cast<Loss>(rng.below(256));
  w.id = static_cast<SlotId>(rng.below(id_bound));
  w.pending = rng.below(4) != 0;  // mixed pendingness, mostly backlogged
  return w;
}

constexpr ComparisonMode kModes[] = {
    ComparisonMode::kDwcsFull, ComparisonMode::kTagOnly,
    ComparisonMode::kStatic};

TEST(PackRoundTrip, AllFieldsSurvive) {
  Rng rng(0xFACADE);
  for (int t = 0; t < 20000; ++t) {
    const AttrWord w = random_word(rng);
    const AttrWord back = unpack(pack(w));
    ASSERT_EQ(back, w) << "trial " << t;
  }
}

TEST(PackRoundTrip, BoundaryDeadlinesAndArrivals) {
  static constexpr std::uint16_t kEdges[] = {0x0000, 0x0001, 0x7FFF,
                                             0x8000, 0x8001, 0xFFFF};
  for (const std::uint16_t d : kEdges) {
    for (const std::uint16_t a : kEdges) {
      for (const bool pend : {false, true}) {
        AttrWord w;
        w.deadline = Deadline{d};
        w.arrival = Arrival{a};
        w.loss_num = 0xFF;
        w.loss_den = 0x00;
        w.id = kMaxSlots - 1;
        w.pending = pend;
        EXPECT_EQ(unpack(pack(w)), w);
      }
    }
  }
}

TEST(PackRoundTrip, OutOfRangeIdIsChecked) {
  AttrWord w;
  w.id = kMaxSlots;  // 5-bit field overflows
  // Debug builds assert at the construction seam.  Release builds
  // saturate to the top slot rather than aliasing a low slot the way the
  // old `& 0x1F` mask did.
  EXPECT_DEBUG_DEATH({ (void)pack(w); }, "5-bit");
#ifdef NDEBUG
  EXPECT_EQ(unpack(pack(w)).id, kMaxSlots - 1);
#endif
}

// Vector kernels available on this host.
std::vector<simd::KernelChoice> vector_kernels() {
  std::vector<simd::KernelChoice> ks;
  if (simd::avx2_supported()) ks.push_back(simd::KernelChoice::kAvx2);
  if (simd::avx512_supported()) ks.push_back(simd::KernelChoice::kAvx512);
  return ks;
}

constexpr SortSchedule kSchedules[] = {SortSchedule::kPerfectShuffle,
                                       SortSchedule::kBitonic,
                                       SortSchedule::kOddEven};

// The load families every kernel must route exactly like the referee.
enum class Family {
  kRandom,         // unique ids in lane order, every field adversarial
  kAntipodal,      // deadlines D or D + 0x8000, every other field equal
  kIdenticalWords, // each lane a copy of one of two words, id included
  kSharedId,       // one id on every lane, random fields perturbed
};

std::vector<AttrWord> family_load(Family f, unsigned n, int trial,
                                  Rng& rng) {
  std::vector<AttrWord> words(n);
  switch (f) {
    case Family::kRandom:
      for (unsigned i = 0; i < n; ++i) {
        // Unique ids in lane order (the chip's LOAD contract); everything
        // else adversarial, including all-idle loads.
        words[i] = random_word(rng);
        words[i].id = static_cast<SlotId>(i);
      }
      break;
    case Family::kAntipodal: {
      // Every comparison between a D lane and a D + 0x8000 lane reaches
      // the Serial<16> antipode; which lanes carry the high half is
      // random, so pairs meet in both orders.
      AttrWord base = random_word(rng);
      for (unsigned i = 0; i < n; ++i) {
        words[i] = base;
        words[i].id = static_cast<SlotId>(i);
        if (rng.below(2) != 0) {
          words[i].deadline = Deadline{static_cast<std::uint16_t>(
              base.deadline.raw() + 0x8000u)};
        }
      }
      break;
    }
    case Family::kIdenticalWords: {
      const AttrWord w[2] = {random_word(rng), random_word(rng)};
      for (unsigned i = 0; i < n; ++i) words[i] = w[rng.below(2)];
      break;
    }
    case Family::kSharedId: {
      // Same id, different attributes: each lane perturbs a random subset
      // of the template's fields, so some pairs tie on exactly the
      // fields a mode reads.
      const AttrWord t = random_word(rng);
      for (unsigned i = 0; i < n; ++i) {
        const AttrWord r = random_word(rng);
        words[i] = t;
        if (rng.below(2) != 0) words[i].deadline = r.deadline;
        if (rng.below(2) != 0) words[i].arrival = r.arrival;
        if (rng.below(2) != 0) words[i].loss_num = r.loss_num;
        if (rng.below(2) != 0) words[i].loss_den = r.loss_den;
        if (rng.below(2) != 0) words[i].pending = r.pending;
      }
      break;
    }
  }
  // Every 4th trial saturates the backlog: the all-pending
  // specialization (pend lanes dropped from the pass loop) is the
  // steady-state chip case but a (3/4)^32 longshot under random
  // pendingness at n=32.
  if (trial % 4 == 0) {
    for (AttrWord& w : words) w.pending = true;
  }
  return words;
}

TEST(KernelEquivalence, LaneSequencesMatchReference) {
  constexpr Family kFamilies[] = {Family::kRandom, Family::kAntipodal,
                                  Family::kIdenticalWords, Family::kSharedId};
  Rng rng(0xD1FF);
  for (const unsigned n : {2u, 4u, 8u, 16u, 32u}) {
    for (const SortSchedule sched : kSchedules) {
      for (const ComparisonMode mode : kModes) {
        for (const simd::KernelChoice kc : vector_kernels()) {
          ShuffleNetwork ref(n, sched, mode,
                             simd::KernelChoice::kReference);
          ShuffleNetwork vec(n, sched, mode, kc);
          // Networks the fit hands to the referee would compare it with
          // itself.
          if (vec.kernel() == simd::Kernel::kReference) continue;
          for (const Family fam : kFamilies) {
            for (int trial = 0; trial < 100; ++trial) {
              const std::vector<AttrWord> words =
                  family_load(fam, n, trial, rng);
              ref.load(std::span<const AttrWord>(words));
              vec.load(std::span<const AttrWord>(words));
              ref.run_all();
              vec.run_all();
              ASSERT_EQ(ref.total_swaps(), vec.total_swaps())
                  << "n=" << n << " sched=" << static_cast<int>(sched)
                  << " mode=" << static_cast<int>(mode)
                  << " kernel=" << static_cast<int>(kc)
                  << " family=" << static_cast<int>(fam);
              ASSERT_EQ(ref.total_pending_comparisons(),
                        vec.total_pending_comparisons())
                  << "n=" << n << " family=" << static_cast<int>(fam);
              const std::vector<AttrWord> want = ref.lanes();
              const std::vector<AttrWord> got = vec.lanes();
              for (unsigned i = 0; i < n; ++i) {
                ASSERT_EQ(want[i], got[i])
                    << "lane " << i << " n=" << n
                    << " sched=" << static_cast<int>(sched)
                    << " mode=" << static_cast<int>(mode)
                    << " kernel=" << static_cast<int>(kc)
                    << " family=" << static_cast<int>(fam);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Dispatch, ParsesSsSimdTokens) {
  using simd::KernelChoice;
  EXPECT_EQ(simd::parse_choice(nullptr), KernelChoice::kAuto);
  EXPECT_EQ(simd::parse_choice(""), KernelChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("AUTO"), KernelChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("auto"), KernelChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("REF"), KernelChoice::kReference);
  EXPECT_EQ(simd::parse_choice("ref"), KernelChoice::kReference);
  EXPECT_EQ(simd::parse_choice("avx2"), KernelChoice::kAvx2);
  EXPECT_EQ(simd::parse_choice("AVX512"), KernelChoice::kAvx512);
  EXPECT_EQ(simd::parse_choice("Avx512"), KernelChoice::kAvx512);
  // Anything else fails loudly rather than running some other kernel.
  for (const char* retired :
       {"bogus", "OFF", "0", "swar", "Scalar", "ON", "1", "reference",
        "AVX", "AVX5120", " REF"}) {
    EXPECT_THROW((void)simd::parse_choice(retired), std::invalid_argument)
        << retired;
  }
  try {
    (void)simd::parse_choice("OFF");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* token : {"AUTO", "REF", "AVX2", "AVX512"}) {
      EXPECT_NE(what.find(token), std::string::npos) << what;
    }
  }
}

TEST(Dispatch, ResolveRespectsHostSupport) {
  using simd::Kernel;
  using simd::KernelChoice;
  EXPECT_EQ(simd::resolve(KernelChoice::kReference), Kernel::kReference);
  // An explicit AVX2 request never upgrades to AVX-512 (differential legs
  // pin the exact kernel); it degrades to the referee off-host.
  const Kernel avx2 = simd::resolve(KernelChoice::kAvx2);
  EXPECT_EQ(avx2,
            simd::avx2_supported() ? Kernel::kAvx2 : Kernel::kReference);
  // AUTO and AVX512 pick the widest supported tier.
  for (const KernelChoice c : {KernelChoice::kAuto, KernelChoice::kAvx512}) {
    const Kernel k = simd::resolve(c);
    if (simd::avx512_supported()) {
      EXPECT_EQ(k, Kernel::kAvx512);
    } else if (simd::avx2_supported()) {
      EXPECT_EQ(k, Kernel::kAvx2);
    } else {
      EXPECT_EQ(k, Kernel::kReference);
    }
  }
}

// kernel() names the code that runs: each network is fitted once, from
// the CPU, the slot count and the schedule.
TEST(Dispatch, NetworkFitsItsKernel) {
  using simd::Kernel;
  using simd::KernelChoice;
  const auto kernel_of = [](unsigned n, SortSchedule s, KernelChoice c) {
    return ShuffleNetwork(n, s, ComparisonMode::kDwcsFull, c).kernel();
  };
  constexpr KernelChoice kChoices[] = {KernelChoice::kAuto,
                                       KernelChoice::kReference,
                                       KernelChoice::kAvx2,
                                       KernelChoice::kAvx512};
  for (const KernelChoice c : kChoices) {
    for (const SortSchedule s : kSchedules) {
      for (const unsigned n : {2u, 4u, 8u}) {
        EXPECT_EQ(kernel_of(n, s, c), Kernel::kReference)
            << "n=" << n << " sched=" << static_cast<int>(s);
      }
    }
    for (const unsigned n : {16u, 32u}) {
      EXPECT_EQ(kernel_of(n, SortSchedule::kOddEven, c), Kernel::kReference)
          << "odd-even n=" << n;
    }
  }
  const Kernel avx2 =
      simd::avx2_supported() ? Kernel::kAvx2 : Kernel::kReference;
  const Kernel widest = simd::avx512_supported() ? Kernel::kAvx512 : avx2;
  // kAuto follows SS_SIMD, which the CI legs pin.
  const Kernel dflt = simd::default_kernel();
  for (const SortSchedule s :
       {SortSchedule::kPerfectShuffle, SortSchedule::kBitonic}) {
    EXPECT_EQ(kernel_of(16, s, KernelChoice::kAvx2), avx2);
    EXPECT_EQ(kernel_of(16, s, KernelChoice::kAvx512), avx2);
    EXPECT_EQ(kernel_of(16, s, KernelChoice::kAuto),
              dflt == Kernel::kReference ? Kernel::kReference : avx2);
    EXPECT_EQ(kernel_of(32, s, KernelChoice::kAvx2), avx2);
    EXPECT_EQ(kernel_of(32, s, KernelChoice::kAvx512), widest);
    EXPECT_EQ(kernel_of(32, s, KernelChoice::kAuto), dflt);
  }
}

}  // namespace
}  // namespace ss::hw
