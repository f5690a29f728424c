// threaded_test.cpp — concurrent queuing/scheduling/transmission over the
// synchronization-free rings (the Section 5.1 concurrency claim).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/threaded_endsystem.hpp"

namespace ss::core {
namespace {

ThreadedConfig cfg(unsigned slots = 4) {
  ThreadedConfig c;
  c.chip.slots = slots;
  c.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  return c;
}

dwcs::StreamRequirement fair(double w, bool droppable = false) {
  dwcs::StreamRequirement r;
  r.kind = dwcs::RequirementKind::kFairShare;
  r.weight = w;
  r.droppable = droppable;
  return r;
}

TEST(ThreadedEndsystem, RejectsMoreStreamsThanSlots) {
  ThreadedEndsystem es(cfg(2));
  es.add_stream(fair(1.0));
  es.add_stream(fair(1.0));
  EXPECT_THROW(es.add_stream(fair(1.0)), std::length_error);
}

TEST(ThreadedEndsystem, RejectsReloadOfUnknownStream) {
  ThreadedEndsystem es(cfg());
  es.add_stream(fair(1.0));
  EXPECT_THROW(es.request_reload(1, fair(2.0)), std::invalid_argument);
}

TEST(ThreadedEndsystem, EveryProducedFrameIsTransmitted) {
  ThreadedEndsystem es(cfg());
  for (double w : {1.0, 1.0, 2.0, 4.0}) es.add_stream(fair(w));
  const auto rep = es.run(5000);
  EXPECT_EQ(rep.frames_produced, 20000u);
  EXPECT_EQ(rep.frames_transmitted, 20000u);
  EXPECT_GT(rep.pps, 0.0);
}

TEST(ThreadedEndsystem, PerStreamCountsConserve) {
  ThreadedEndsystem es(cfg());
  for (double w : {1.0, 1.0, 2.0, 4.0}) es.add_stream(fair(w));
  const auto rep = es.run(3000);
  std::uint64_t sum = 0;
  for (const auto v : rep.per_stream_tx) sum += v;
  EXPECT_EQ(sum, rep.frames_transmitted);
  for (const auto v : rep.per_stream_tx) EXPECT_EQ(v, 3000u);
}

TEST(ThreadedEndsystem, TinyRingsForceBackpressureNotLoss) {
  ThreadedConfig c = cfg(2);
  c.ring_capacity = 8;  // deliberately starve the producer
  ThreadedEndsystem es(c);
  es.add_stream(fair(1.0));
  es.add_stream(fair(1.0));
  const auto rep = es.run(20000);
  EXPECT_EQ(rep.frames_transmitted, 40000u);  // nothing lost
  EXPECT_GT(rep.producer_full_stalls, 0u);    // but the producer did wait
}

TEST(ThreadedEndsystem, PendingReloadsKeepOneEntryPerStream) {
  // 10,000 requests posted before run() commit as one reload per stream:
  // a newer request supersedes the pending one instead of queueing.
  ThreadedEndsystem es(cfg(8));
  for (unsigned i = 0; i < 8; ++i) es.add_stream(fair(1.0));
  for (unsigned k = 0; k < 10000; ++k) {
    es.request_reload(k % 8, fair(1.0 + static_cast<double>(k % 5)));
  }
  const auto rep = es.run(500);
  EXPECT_EQ(rep.reloads_applied, 8u);
  EXPECT_EQ(rep.frames_produced, 8u * 500u);
  EXPECT_EQ(rep.frames_transmitted, rep.frames_produced);
  for (const auto v : rep.per_stream_tx) EXPECT_EQ(v, 500u);
}

TEST(ThreadedEndsystem, RepeatedRunsAreStable) {
  for (int round = 0; round < 3; ++round) {
    ThreadedEndsystem es(cfg(2));
    es.add_stream(fair(1.0));
    es.add_stream(fair(3.0));
    const auto rep = es.run(2000);
    ASSERT_EQ(rep.frames_transmitted, 4000u) << "round " << round;
  }
}

}  // namespace
}  // namespace ss::core
