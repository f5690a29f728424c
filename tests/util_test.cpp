// util_test.cpp — unit and property tests for the ss_util foundation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace ss {
namespace {

// ---------------------------------------------------------------- Serial

TEST(Serial, BasicOrdering) {
  Serial16 a{10}, b{20};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a <= b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a != b);
  EXPECT_EQ(a, Serial16{10});
}

TEST(Serial, WrapAroundOrdering) {
  // 0xFFF0 is "before" 0x0010 across the wrap: the scheduler must treat a
  // deadline just past the wrap as later, not 65000 units earlier.
  Serial16 before{0xFFF0}, after{0x0010};
  EXPECT_TRUE(before < after);
  EXPECT_FALSE(after < before);
}

TEST(Serial, AdditionWraps) {
  Serial16 x{0xFFFF};
  EXPECT_EQ((x + 1).raw(), 0u);
  EXPECT_EQ((x + 2).raw(), 1u);
  x += 3;
  EXPECT_EQ(x.raw(), 2u);
}

TEST(Serial, SubtractionWraps) {
  Serial16 x{0};
  EXPECT_EQ((x - 1).raw(), 0xFFFFu);
}

TEST(Serial, DistanceTo) {
  Serial16 a{100};
  EXPECT_EQ(a.distance_to(Serial16{150}), 50u);
  EXPECT_EQ(a.distance_to(Serial16{50}), 65486u);  // wraps forward
  EXPECT_EQ(a.distance_to(a), 0u);
}

TEST(Serial, HalfSpaceTieBreakIsDeterministicAndAntisymmetric) {
  Serial16 a{0}, b{0x8000};
  const bool ab = a < b;
  const bool ba = b < a;
  EXPECT_NE(ab, ba);  // exactly one direction wins
}

// Regression (wrap-compare bugfix): at the exact half-range antipode
// (forward distance 0x8000) the tie-break must be lower-raw-wins, the
// only choice consistent with the 64-bit unwrapped oracle when both
// values live in the same wrap epoch.  The pre-fix higher-raw-wins break
// made Serial16{0} < Serial16{0x8000} false — this test enumerates every
// boundary pair and fails against that implementation.
TEST(Serial, HalfSpaceAntipodeLowerRawWins) {
  for (std::uint32_t x = 0; x < 0x8000u; ++x) {
    const Serial16 lo{x}, hi{x + 0x8000u};
    ASSERT_TRUE(lo < hi) << "x=" << x;
    ASSERT_FALSE(hi < lo) << "x=" << x;
    // Same epoch, unwrapped: x precedes x + 0x8000.  The serial order
    // must agree at the antipode exactly like everywhere else in-epoch.
    ASSERT_EQ(lo < hi, x < x + 0x8000u) << "x=" << x;
  }
  // The law is width-independent: check the 8-bit loss-field width too.
  for (std::uint32_t x = 0; x < 0x80u; ++x) {
    const Serial8 lo{x}, hi{x + 0x80u};
    ASSERT_TRUE(lo < hi) << "x=" << x;
    ASSERT_FALSE(hi < lo) << "x=" << x;
  }
}

TEST(Serial, EightBitWidth) {
  Serial8 a{250}, b{5};
  EXPECT_TRUE(a < b);  // wraps: 250 -> 5 is +11 forward
  EXPECT_EQ((a + 10).raw(), 4u);
}

// Property: for values within half the number space of each other, serial
// ordering agrees with unwrapped ordering.
TEST(SerialProperty, AgreesWithUnwrappedWithinHorizon) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t base = rng();
    const std::uint64_t delta = rng.below(0x7FFF);  // < half space
    const Serial16 a{base}, b{base + delta};
    EXPECT_EQ(a < b, delta != 0) << "base=" << base << " delta=" << delta;
    EXPECT_FALSE(b < a);
  }
}

// Property: trichotomy — exactly one of <, ==, > holds.
TEST(SerialProperty, Trichotomy) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const Serial16 a{rng()}, b{rng()};
    const int cnt = (a < b ? 1 : 0) + (b < a ? 1 : 0) + (a == b ? 1 : 0);
    EXPECT_EQ(cnt, 1);
  }
}

// Property: adding a delta < half space always moves forward.
TEST(SerialProperty, AdditionMovesForward) {
  Rng rng(44);
  for (int i = 0; i < 20000; ++i) {
    const Serial16 a{rng()};
    const std::uint64_t d = 1 + rng.below(0x7FFE);
    EXPECT_TRUE(a < a + d);
  }
}

// Typed sweep: the serial laws must hold at every field width the
// hardware uses (8-bit loss fields, 16-bit deadlines/arrivals) and at
// widths a re-parameterized design might pick.
template <typename T>
class SerialWidths : public ::testing::Test {};
struct W8 { static constexpr unsigned bits = 8; };
struct W12 { static constexpr unsigned bits = 12; };
struct W16 { static constexpr unsigned bits = 16; };
struct W24 { static constexpr unsigned bits = 24; };
struct W32 { static constexpr unsigned bits = 32; };
using Widths = ::testing::Types<W8, W12, W16, W24, W32>;
TYPED_TEST_SUITE(SerialWidths, Widths);

TYPED_TEST(SerialWidths, WrapAndOrderingLaws) {
  constexpr unsigned kBits = TypeParam::bits;
  using S = Serial<kBits>;
  constexpr std::uint64_t kMod = kBits == 64 ? 0 : (1ull << kBits);
  Rng rng(kBits);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t base = rng();
    const std::uint64_t delta = rng.below((kMod >> 1) - 1);
    const S a{base};
    const S b{base + delta};
    // forward distance matches the unwrapped delta
    ASSERT_EQ(a.distance_to(b), delta % kMod);
    // ordering agrees with unwrapped ordering within the horizon
    ASSERT_EQ(a < b, delta != 0);
    // addition is associative with wrapping
    const std::uint64_t d2 = rng.below(1 << 8);
    ASSERT_EQ(((a + delta) + d2).raw(), (a + (delta + d2)).raw());
    // subtraction inverts addition
    ASSERT_EQ(((a + delta) - delta).raw(), a.raw());
  }
}

TYPED_TEST(SerialWidths, MaskMatchesWidth) {
  using S = Serial<TypeParam::bits>;
  EXPECT_EQ(S::kMask, (1ull << TypeParam::bits) - 1);
  EXPECT_EQ((static_cast<std::uint64_t>(S{S::kMask}.raw()) + 1u) & S::kMask,
            0u);
}

// ---------------------------------------------------------------- bitops

TEST(BitOps, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2((1ull << 63) + 1));
}

TEST(BitOps, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(32), 5u);
  EXPECT_EQ(log2_ceil(33), 6u);
}

TEST(BitOps, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(1023), 9u);
}

TEST(BitOps, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(100), 128u);
}

TEST(BitOps, PerfectShuffleIsPermutationAndInvertible) {
  for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
    std::vector<bool> seen(n, false);
    for (unsigned i = 0; i < n; ++i) {
      const unsigned j = perfect_shuffle(i, n);
      ASSERT_LT(j, n);
      EXPECT_FALSE(seen[j]) << "n=" << n << " collision at " << j;
      seen[j] = true;
      EXPECT_EQ(perfect_unshuffle(j, n), i);
    }
  }
}

TEST(BitOps, PerfectShuffleInterleavesHalves) {
  // The classic card-shuffle property on 8 positions: 0,4,1,5,2,6,3,7
  // land at 0..7 — i.e. position of item i is the left-rotation of i.
  EXPECT_EQ(perfect_shuffle(0, 8), 0u);
  EXPECT_EQ(perfect_shuffle(4, 8), 1u);
  EXPECT_EQ(perfect_shuffle(1, 8), 2u);
  EXPECT_EQ(perfect_shuffle(5, 8), 3u);
  EXPECT_EQ(perfect_shuffle(3, 8), 6u);
  EXPECT_EQ(perfect_shuffle(7, 8), 7u);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(10);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

// ----------------------------------------------------------------- stats

TEST(PercentileSampler, MedianAndExtremes) {
  PercentileSampler p;
  for (int i = 1; i <= 101; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.median(), 51.0);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 101.0);
}

TEST(PercentileSampler, InterpolatesBetweenRanks) {
  PercentileSampler p;
  p.add(10);
  p.add(20);
  EXPECT_DOUBLE_EQ(p.percentile(50), 15.0);
}

TEST(PercentileSampler, AddAfterQueryResorts) {
  PercentileSampler p;
  p.add(5);
  p.add(1);
  EXPECT_DOUBLE_EQ(p.percentile(100), 5.0);
  p.add(0.5);
  EXPECT_DOUBLE_EQ(p.percentile(0), 0.5);
}

TEST(PercentileSampler, EmptyReturnsZero) {
  PercentileSampler p;
  EXPECT_EQ(p.percentile(50), 0.0);
}

// ------------------------------------------------------------------- csv

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "util_test_tmp.csv";
  {
    CsvWriter w(path, {"a", "b,c"});
    ASSERT_TRUE(w.ok());
    w.cell(std::uint64_t{1});
    w.cell(2.5);
    w.endrow();
    w.row({3.0, 4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,\"b,c\"");
  EXPECT_EQ(l2, "1,2.5");
  EXPECT_EQ(l3, "3,4");
  std::remove(path.c_str());
}

// -------------------------------------------------------------- sim_time

TEST(SimTime, PacketTimes) {
  // The paper's Section 1 numbers: 64-byte and 1500-byte Ethernet frames
  // on a 10 Gb link take ~0.05 us and ~1.2 us.
  EXPECT_NEAR(packet_time_ns(64, 10.0), 51.2, 0.01);
  EXPECT_NEAR(packet_time_ns(1500, 10.0), 1200.0, 0.01);
  EXPECT_NEAR(packet_time_ns(64, 1.0), 512.0, 0.01);
  EXPECT_NEAR(packet_time_ns(1500, 1.0), 12000.0, 0.01);
}

TEST(SimTime, CyclesToNanosRoundsUp) {
  EXPECT_EQ(count(cycles_to_nanos(Cycles{100}, 100.0)), 1000u);
  EXPECT_EQ(count(cycles_to_nanos(Cycles{1}, 3.0)), 334u);
}

TEST(SimTime, StrongTypesAdd) {
  Cycles c{5};
  c += Cycles{7};
  EXPECT_EQ(count(c), 12u);
  Nanos n{5};
  n += Nanos{7};
  EXPECT_EQ(count(n), 12u);
  EXPECT_TRUE(Cycles{1} < Cycles{2});
}

// ----------------------------------------------------------- ascii chart

TEST(AsciiChart, RendersSeriesGlyphsAndLabels) {
  AsciiChart c("Title", "x", "y", 40, 10);
  c.add({"s1", {0, 1, 2, 3}, {0, 1, 4, 9}, '*'});
  c.add({"s2", {0, 1, 2, 3}, {9, 4, 1, 0}, 'o'});
  const std::string r = c.render();
  EXPECT_NE(r.find("Title"), std::string::npos);
  EXPECT_NE(r.find('*'), std::string::npos);
  EXPECT_NE(r.find('o'), std::string::npos);
  EXPECT_NE(r.find("s1"), std::string::npos);
  EXPECT_NE(r.find("y"), std::string::npos);
}

TEST(AsciiChart, HandlesDegenerateRanges) {
  AsciiChart c("flat", "x", "y", 30, 8);
  c.add({"s", {1, 1, 1}, {5, 5, 5}, '*'});
  EXPECT_NO_THROW({ const auto r = c.render(); });
}

TEST(AsciiChart, LogXAxis) {
  AsciiChart c("log", "n", "v", 40, 10);
  c.set_log_x(true);
  c.add({"s", {4, 8, 16, 32}, {1, 2, 3, 4}, '#'});
  const std::string r = c.render();
  EXPECT_NE(r.find("(log)"), std::string::npos);
}

}  // namespace
}  // namespace ss
