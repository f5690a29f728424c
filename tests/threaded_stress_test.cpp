// threaded_stress_test.cpp — sanitizer-oriented stress for the paper's
// synchronization-free circular queues (Section 4.2/5.1).
//
// threaded_test.cpp checks the happy-path conservation claims; this suite
// deliberately makes the concurrency hard: rings sized so small that every
// run lives on the full/empty boundary, many streams, and a raw two-thread
// hammer on queueing::SpscRing itself.  Run it under
// -DSS_SANITIZE=thread — TSan proves the acquire/release pairing on the
// read/write indices is the *only* synchronization these paths need,
// which is the paper's "without any synchronization needs" claim stated
// as the absence of data races rather than as throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/threaded_endsystem.hpp"
#include "queueing/spsc_ring.hpp"

namespace ss {
namespace {

// Producer pushes a strictly increasing sequence through a ring small
// enough that it is full most of the time; the consumer must see every
// value exactly once, in order.  FIFO order + no loss + no duplication is
// exactly what acquire/release on the indices has to guarantee.
TEST(SpscRingStress, TinyRingTwoThreadOrderAndConservation) {
  constexpr std::uint64_t kItems = 200000;
  queueing::SpscRing<std::uint64_t> ring(4);  // 3 usable slots

  std::thread producer([&] {
    for (std::uint64_t v = 0; v < kItems; ++v) {
      while (!ring.try_push(v)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (expected < kItems) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// A bulk producer publishes each run with one index store; a consumer
// popping concurrently must still see every value once, in order,
// however much of a run the ring had room for.  Runs of 1 to 11 items
// meet the 16-slot buffer end at every offset.
TEST(SpscRingStress, BulkProducerRacesAPoppingConsumer) {
  constexpr std::uint64_t kItems = 200000;
  queueing::SpscRing<std::uint64_t> ring(16);  // 15 usable slots

  std::thread producer([&] {
    std::uint64_t run[11];
    for (std::uint64_t next = 0; next < kItems;) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(1 + next % 11, kItems - next));
      for (std::size_t j = 0; j < n; ++j) run[j] = next + j;
      const std::size_t k = ring.try_push_n(run, n);
      if (k == 0) std::this_thread::yield();
      next += k;
    }
  });

  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  while (expected < kItems) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// Peek must never observe a slot the producer has not published yet: the
// consumer alternates a head peek (try_peek_at(0, ...), the read
// QueueManager::batch_arrivals makes) with a pop and requires the two to
// agree.
TEST(SpscRingStress, PeekNeverRunsAheadOfPublication) {
  constexpr std::uint64_t kItems = 100000;
  queueing::SpscRing<std::uint64_t> ring(2);  // 1 usable slot: max contention

  std::thread producer([&] {
    for (std::uint64_t v = 0; v < kItems; ++v) {
      while (!ring.try_push(v)) std::this_thread::yield();
    }
  });

  std::uint64_t expected = 0;
  std::uint64_t head = 0, popped = 0;
  while (expected < kItems) {
    if (!ring.try_peek_at(0, head)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(head, expected);
    ASSERT_TRUE(ring.try_pop(popped));  // peek saw it, pop must too
    ASSERT_EQ(popped, head);
    ++expected;
  }
  producer.join();
}

// Regression for the size() snapshot: a third thread samples size() while
// both endpoints run.  Loading the write index before the read index let
// the sampler pair a stale w with a fresh r, underflow (w - r) & mask_,
// and report a near-full ring while it was almost empty.  The invariant:
// the counters are bumped AFTER the index stores with release order, so a
// snapshot can never exceed (pushes observed after) + 1 - (pops observed
// before) — the +1 covers the single push whose index store landed but
// whose counter bump has not.
//
// The producer throttles itself to two frames outstanding so the ring
// lives at the empty boundary — the regime where a pop overtaking a stale
// write snapshot underflows.  On a single-core host the stale pairing
// only happens when the observer is preempted between size()'s two
// loads, so the run is time-bounded rather than item-bounded: ~5 s of
// sampling crosses enough scheduler quanta to fire the pre-fix bug with
// high probability while the fixed ordering stays at zero violations.
TEST(SpscRingStress, SizeSnapshotNeverOvercountsUnderConcurrentObservation) {
  queueing::SpscRing<std::uint64_t> ring(8);  // 7 usable slots
  std::atomic<std::uint64_t> pushed{0}, popped{0};
  std::atomic<bool> stop{false};

  std::thread producer([&] {
    std::uint64_t v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (pushed.load(std::memory_order_relaxed) -
              popped.load(std::memory_order_acquire) >= 2) {
        continue;  // keep the ring nearly empty
      }
      if (ring.try_push(v)) {
        ++v;
        pushed.fetch_add(1, std::memory_order_release);
      }
    }
  });
  std::thread consumer([&] {
    std::uint64_t out = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (ring.try_pop(out)) popped.fetch_add(1, std::memory_order_release);
    }
  });

  std::uint64_t samples = 0, violations = 0;
  std::size_t bad_sz = 0;
  std::uint64_t bad_pushes = 0, bad_pops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 < std::chrono::seconds(5)) {
    for (int k = 0; k < 4096; ++k) {
      const std::uint64_t pops_before = popped.load(std::memory_order_acquire);
      const std::size_t sz = ring.size();
      const std::uint64_t pushes_after = pushed.load(std::memory_order_acquire);
      if (sz > ring.capacity() || sz > pushes_after + 1 - pops_before) {
        if (violations == 0) {
          bad_sz = sz;
          bad_pushes = pushes_after;
          bad_pops = pops_before;
        }
        ++violations;
      }
      ++samples;
    }
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  consumer.join();
  EXPECT_EQ(violations, 0u)
      << "size() snapshot overcounted: " << bad_sz << " vs " << bad_pushes
      << " pushes / " << bad_pops << " pops (" << violations << " of "
      << samples << " samples)";
  EXPECT_GT(samples, 1000u) << "observer barely sampled - no stress";
}

dwcs::StreamRequirement fair_share(double w) {
  dwcs::StreamRequirement r;
  r.kind = dwcs::RequirementKind::kFairShare;
  r.weight = w;
  // Non-droppable: every produced frame must reach the wire, so the
  // conservation assertions below are exact.
  r.droppable = false;
  return r;
}

// Many streams on starved rings: the producer thread and the
// scheduler/transmission thread spend the whole run racing over the
// full-ring boundary, and conservation must still hold exactly.
TEST(ThreadedStress, SixteenStreamsOnStarvedRingsConserveFrames) {
  core::ThreadedConfig cfg;
  cfg.chip.slots = 16;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.ring_capacity = 4;  // 3 usable slots per stream
  core::ThreadedEndsystem es(cfg);
  for (unsigned i = 0; i < 16; ++i) {
    es.add_stream(fair_share(1.0 + (i % 4)));
  }

  const auto rep = es.run(2000);
  EXPECT_EQ(rep.frames_produced, 16u * 2000u);
  EXPECT_EQ(rep.frames_transmitted, rep.frames_produced);
  EXPECT_GT(rep.producer_full_stalls, 0u)
      << "rings were never full — the stress never stressed";
  std::uint64_t sum = 0;
  for (const auto v : rep.per_stream_tx) sum += v;
  EXPECT_EQ(sum, rep.frames_transmitted);
  for (const auto v : rep.per_stream_tx) EXPECT_EQ(v, 2000u);
}

// A third thread hammers the control plane with mid-run re-LOADs while
// the scheduler thread batch-drains whole block decisions: the reload
// mailbox (mutex + release flag) and the rings' acquire/release indices
// are the only synchronization, and TSan must find them sufficient.  The
// chip forgets a slot's backlog on LOAD, so the scheduler re-announces
// every frame still in the ring — with non-droppable streams,
// conservation must stay exact no matter where a reload lands relative to
// a half-drained grant burst.
TEST(ThreadedStress, BatchDrainRacesMidRunReloads) {
  core::ThreadedConfig cfg;
  cfg.chip.slots = 8;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.chip.block_mode = true;
  cfg.chip.batch_depth = 4;
  cfg.chip.schedule = hw::SortSchedule::kBitonic;  // block mode: full sort
  cfg.ring_capacity = 8;
  core::ThreadedEndsystem es(cfg);
  for (unsigned i = 0; i < 8; ++i) es.add_stream(fair_share(1.0 + (i % 3)));

  std::atomic<bool> done{false};
  std::thread reloader([&] {
    std::uint64_t k = 0;
    while (!done.load(std::memory_order_acquire)) {
      es.request_reload(static_cast<std::uint32_t>(k % 8),
                        fair_share(1.0 + static_cast<double>(k % 5)));
      ++k;
      std::this_thread::yield();
    }
  });

  const auto rep = es.run(2000);
  done.store(true, std::memory_order_release);
  reloader.join();

  EXPECT_EQ(rep.frames_produced, 8u * 2000u);
  EXPECT_EQ(rep.frames_transmitted, rep.frames_produced);
  EXPECT_GT(rep.reloads_applied, 0u)
      << "no reload landed mid-run — the race never raced";
  std::uint64_t sum = 0;
  for (const auto v : rep.per_stream_tx) sum += v;
  EXPECT_EQ(sum, rep.frames_transmitted);
  for (const auto v : rep.per_stream_tx) EXPECT_EQ(v, 2000u);
}

// The fault plane under the two-thread load: transient decision-cycle
// stalls recover on the scheduler thread, then the chip dies mid-run and
// the guard fails over to the software shadow — and conservation must
// stay exact across the seam (no queued frame is dropped or duplicated by
// the handoff).
TEST(ThreadedStress, MidRunFailoverConservesEveryFrame) {
  core::ThreadedConfig cfg;
  cfg.chip.slots = 8;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.ring_capacity = 8;
  cfg.faults.seed = 99;
  cfg.faults.chip_fault_per64k = 2000;  // ~3% transient stalls...
  cfg.faults.max_burst = 2;
  cfg.faults.chip_fail_after = 5000;  // ...then the chip dies outright
  core::ThreadedEndsystem es(cfg);
  for (unsigned i = 0; i < 8; ++i) es.add_stream(fair_share(1.0 + (i % 3)));

  const auto rep = es.run(2000);
  EXPECT_EQ(rep.frames_produced, 8u * 2000u);
  EXPECT_EQ(rep.frames_transmitted, rep.frames_produced);
  EXPECT_GT(rep.faults_injected, 0u);
  EXPECT_GT(rep.robust.recoveries, 0u);
  EXPECT_TRUE(rep.failed_over) << "chip death never reached the guard";
  std::uint64_t sum = 0;
  for (const auto v : rep.per_stream_tx) sum += v;
  EXPECT_EQ(sum, rep.frames_transmitted);
  for (const auto v : rep.per_stream_tx) EXPECT_EQ(v, 2000u);
}

// Back-to-back sessions reusing fresh endsystems must not interfere; under
// TSan this also re-runs thread creation/join paths repeatedly.
TEST(ThreadedStress, RepeatedStarvedSessionsStayExact) {
  for (int round = 0; round < 4; ++round) {
    core::ThreadedConfig cfg;
    cfg.chip.slots = 8;
    cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
    cfg.ring_capacity = 8;
    core::ThreadedEndsystem es(cfg);
    for (unsigned i = 0; i < 8; ++i) es.add_stream(fair_share(1.0));
    const auto rep = es.run(1000);
    ASSERT_EQ(rep.frames_transmitted, 8u * 1000u) << "round " << round;
  }
}

}  // namespace
}  // namespace ss
