// system_property_test.cpp — end-to-end invariants of the endsystem
// pipeline and randomized properties of the aggregation manager.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/aggregation.hpp"
#include "core/endsystem.hpp"
#include "util/rng.hpp"

namespace ss::core {
namespace {

// ------------------------------------------------------------- endsystem

EndsystemConfig base_cfg() {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.keep_series = false;
  return cfg;
}

TEST(EndsystemProperty, ConservationEveryFrameAccountedFor) {
  Endsystem es(base_cfg());
  for (double w : {1.0, 2.0, 3.0, 2.0}) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = w;
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(700), 1000);
  }
  const std::vector<std::uint64_t> frames = {500, 1000, 1500, 1000};
  const auto rep = es.run(frames);
  const std::uint64_t total =
      std::accumulate(frames.begin(), frames.end(), std::uint64_t{0});
  EXPECT_EQ(rep.frames, total);
  std::uint64_t monitored = 0;
  for (unsigned i = 0; i < 4; ++i) monitored += es.monitor().frames(i);
  EXPECT_EQ(monitored + rep.dropped_late, total);
  EXPECT_EQ(rep.spurious_schedules, 0u);
}

TEST(EndsystemProperty, DroppableOverloadDropsAreReportedNotLost) {
  EndsystemConfig cfg = base_cfg();
  Endsystem es(cfg);
  // Two droppable EDF streams demanding 1.5x the link: drops must appear
  // in the report and conservation must still hold.
  for (int i = 0; i < 2; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kEdf;
    r.period = 1 + i * 3;  // U = 1 + 1/4
    r.initial_deadline = r.period;
    r.droppable = true;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(10), 1500);
  }
  const auto rep = es.run(3000);
  EXPECT_GT(rep.dropped_late, 0u);
  std::uint64_t monitored = 0;
  for (unsigned i = 0; i < 2; ++i) monitored += es.monitor().frames(i);
  EXPECT_EQ(monitored + rep.dropped_late, rep.frames);
}

TEST(EndsystemProperty, DelayBoundHoldsForAdmittedPacedSet) {
  // Periods {2,4,8,8}: U = 1.0.  Paced arrivals, non-droppable: every
  // frame's measured delay must be within its slot's period plus one
  // frame serialization (grant within the period + transmit time).
  EndsystemConfig cfg = base_cfg();
  cfg.keep_series = true;
  Endsystem es(cfg);
  const std::uint32_t periods[4] = {2, 4, 8, 8};
  const double ptime = packet_time_ns(1500, cfg.link_gbps);
  std::vector<std::uint64_t> frames;
  for (const auto p : periods) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kEdf;
    r.period = p;
    r.initial_deadline = p;
    r.droppable = false;
    es.add_stream(r,
                  std::make_unique<queueing::CbrGen>(
                      static_cast<std::uint64_t>(ptime * p)),
                  1500);
    frames.push_back(2000 / p);
  }
  es.run(frames);
  for (unsigned i = 0; i < 4; ++i) {
    const double bound_us = (periods[i] + 1) * ptime / 1000.0;
    for (const auto& d : es.monitor().delay_series(i)) {
      ASSERT_LE(d.delay_us, bound_us + 1.0)
          << "stream " << i << " exceeded its delay bound";
    }
  }
}

TEST(EndsystemProperty, MpegGranularityStreamsCoexistWithEthernet) {
  // The Figure-1 granularity axis end to end: an MPEG source (huge,
  // variable frames at 30 fps) shares the link with small CBR streams;
  // everything delivers, and the MPEG stream's byte share dwarfs its
  // frame share.
  EndsystemConfig cfg = base_cfg();
  cfg.link_gbps = 0.1;
  Endsystem es(cfg);
  dwcs::StreamRequirement mpeg;
  mpeg.kind = dwcs::RequirementKind::kFairShare;
  mpeg.weight = 2.0;
  mpeg.droppable = false;
  queueing::MpegGen::Gop gop;
  gop.jitter = 0.05;
  es.add_stream(mpeg,
                std::make_unique<queueing::MpegGen>(33'000'000, gop, 5),
                1500 /* ignored by MpegGen */);
  for (int i = 0; i < 3; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = 1.0;
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(500'000), 1500);
  }
  const auto rep = es.run(std::vector<std::uint64_t>{300, 800, 800, 800});
  EXPECT_EQ(rep.frames, 300u + 3 * 800u);
  const auto& mon = es.monitor();
  // MPEG frames average ~16 kB vs 1500 B: byte share per frame ~10x.
  const double mpeg_bpf =
      static_cast<double>(mon.bytes(0)) / mon.frames(0);
  EXPECT_GT(mpeg_bpf, 10'000.0);
  EXPECT_EQ(mon.frames(0), 300u);
  for (unsigned i = 1; i < 4; ++i) EXPECT_EQ(mon.frames(i), 800u);
}

// ------------------------------------------------------------ aggregation

TEST(AggregationProperty, RandomWeightVectorsConvergeToShares) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    AggregationManager agg;
    const unsigned sets = 2 + static_cast<unsigned>(rng.below(3));
    std::vector<StreamletSet> spec;
    std::uint64_t wsum = 0;
    for (unsigned s = 0; s < sets; ++s) {
      StreamletSet set;
      set.streamlets = 1 + static_cast<std::uint32_t>(rng.below(20));
      set.weight = 1 + static_cast<std::uint32_t>(rng.below(9));
      wsum += set.weight;
      spec.push_back(set);
    }
    const auto slot = agg.bind_slot(spec);
    const std::uint64_t grants = 5000;
    for (std::uint64_t g = 0; g < grants; ++g) agg.on_grant(slot);
    for (unsigned s = 0; s < sets; ++s) {
      const double expect =
          static_cast<double>(grants) * spec[s].weight / wsum;
      ASSERT_NEAR(static_cast<double>(agg.set_grants(slot, s)), expect,
                  static_cast<double>(wsum))
          << "trial " << trial << " set " << s;
      // Within a set, streamlet counts differ by at most one round.
      std::uint64_t lo = ~0ull, hi = 0;
      const auto& pergrant = agg.grants(slot);
      std::uint32_t base = 0;
      for (unsigned q = 0; q < s; ++q) base += spec[q].streamlets;
      for (std::uint32_t i = 0; i < spec[s].streamlets; ++i) {
        lo = std::min(lo, pergrant[base + i]);
        hi = std::max(hi, pergrant[base + i]);
      }
      ASSERT_LE(hi - lo, 1u) << "uneven RR within a set";
    }
  }
}

TEST(AggregationProperty, TotalGrantsConserved) {
  Rng rng(2025);
  AggregationManager agg;
  const auto slot = agg.bind_slot({{7, 2}, {13, 5}, {3, 1}});
  const std::uint64_t grants = 4321;
  for (std::uint64_t g = 0; g < grants; ++g) agg.on_grant(slot);
  std::uint64_t per_streamlet = 0, per_set = 0;
  for (const auto v : agg.grants(slot)) per_streamlet += v;
  for (unsigned s = 0; s < 3; ++s) per_set += agg.set_grants(slot, s);
  EXPECT_EQ(per_streamlet, grants);
  EXPECT_EQ(per_set, grants);
}

}  // namespace
}  // namespace ss::core
