// queueing_test.cpp — SPSC rings (including a real two-thread stress),
// traffic generators, the Queue Manager and the Transmission Engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "queueing/frame.hpp"
#include "queueing/link_model.hpp"
#include "queueing/queue_manager.hpp"
#include "queueing/spsc_ring.hpp"
#include "queueing/traffic_gen.hpp"
#include "queueing/transmission_engine.hpp"
#include "telemetry/instruments.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace ss::queueing {
namespace {

// ------------------------------------------------------------- SpscRing

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  int v;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(SpscRing, CapacityRoundsUpAndSacrificesOneSlot) {
  SpscRing<int> q(5);
  EXPECT_EQ(q.capacity(), 7u);  // rounded to 8, minus the full/empty slot
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(7));  // full
}

TEST(SpscRing, PeekDoesNotConsume) {
  SpscRing<int> q(4);
  q.try_push(42);
  int v = 0;
  EXPECT_TRUE(q.try_peek(v));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_FALSE(q.try_peek(v));
}

TEST(SpscRing, SizeAndEmpty) {
  SpscRing<int> q(8);
  EXPECT_TRUE(q.empty());
  q.try_push(1);
  q.try_push(2);
  EXPECT_EQ(q.size(), 2u);
  int v;
  q.try_pop(v);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SpscRing, WrapsManyTimes) {
  SpscRing<int> q(4);
  int v;
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(q.try_push(round));
    ASSERT_TRUE(q.try_pop(v));
    ASSERT_EQ(v, round);
  }
}

TEST(SpscRing, TwoThreadStressPreservesSequence) {
  // The paper's concurrency claim: producer fills while the TE drains,
  // no synchronization beyond the two pointers.
  SpscRing<std::uint64_t> q(1024);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (q.try_push(i)) ++i;
    }
  });
  std::uint64_t expect = 0;
  std::uint64_t v;
  while (expect < kN) {
    if (q.try_pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

// -------------------------------------------------------- traffic gens

TEST(TrafficGen, CbrIsExactlyPeriodic) {
  CbrGen g(250, 1000);
  EXPECT_EQ(g.next_arrival_ns(), 1000u);
  EXPECT_EQ(g.next_arrival_ns(), 1250u);
  EXPECT_EQ(g.next_arrival_ns(), 1500u);
}

TEST(TrafficGen, BurstyInsertsGapAfterBurst) {
  // The Figure-9 generator: burst of 4000 frames, then a multi-ms gap.
  BurstyGen g(/*burst=*/3, /*intra=*/10, /*gap=*/1000000);
  EXPECT_EQ(g.next_arrival_ns(), 0u);
  EXPECT_EQ(g.next_arrival_ns(), 10u);
  EXPECT_EQ(g.next_arrival_ns(), 20u);
  EXPECT_EQ(g.next_arrival_ns(), 1000020u);  // gap
  EXPECT_EQ(g.next_arrival_ns(), 1000030u);
}

TEST(TrafficGen, PoissonMeanInterArrival) {
  PoissonGen g(1000.0, /*seed=*/99);
  std::uint64_t prev = g.next_arrival_ns();
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto t = g.next_arrival_ns();
    sum += static_cast<double>(t - prev);
    prev = t;
  }
  EXPECT_NEAR(sum / n, 1000.0, 20.0);
}

TEST(TrafficGen, PoissonMonotone) {
  PoissonGen g(10.0, 7);
  std::uint64_t prev = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto t = g.next_arrival_ns();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST(TrafficGen, TraceReplaysAndExtends) {
  TraceGen g({5, 10, 20});
  EXPECT_EQ(g.next_arrival_ns(), 5u);
  EXPECT_EQ(g.next_arrival_ns(), 10u);
  EXPECT_EQ(g.next_arrival_ns(), 20u);
  EXPECT_EQ(g.next_arrival_ns(), 30u);  // extends with the tail gap
  EXPECT_EQ(g.next_arrival_ns(), 40u);
}

TEST(TrafficGen, GenerateStampsFrames) {
  CbrGen g(100);
  const auto frames = g.generate(/*stream=*/3, /*n=*/5, /*bytes=*/700,
                                 /*seq0=*/10);
  ASSERT_EQ(frames.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].stream, 3u);
    EXPECT_EQ(frames[i].bytes, 700u);
    EXPECT_EQ(frames[i].seq, 10 + i);
    EXPECT_EQ(frames[i].arrival_ns, i * 100);
  }
}

TEST(Frame, ArrivalOffsetTruncatesTo16Bits) {
  EXPECT_EQ(arrival_offset(12'000, 1000), 12u);
  EXPECT_EQ(arrival_offset(70'000'000, 1000), (70'000u & 0xFFFFu));
}

// ------------------------------------------------------------ LinkModel

TEST(LinkModel, SerializationTime) {
  LinkModel link(1.0);  // 1 Gbps: 1500 B = 12 us
  EXPECT_EQ(link.busy_until_ns(), 0u);
  EXPECT_EQ(link.transmit(1500, 0), 12000u);
  EXPECT_EQ(link.busy_until_ns(), 12000u);
}

TEST(LinkModel, BackToBackFramesQueueOnTheWire) {
  LinkModel link(1.0);
  EXPECT_EQ(link.transmit(1500, 0), 12000u);
  EXPECT_EQ(link.transmit(1500, 0), 24000u);  // waits for the first
  EXPECT_EQ(link.transmit(1500, 30000), 42000u);  // idle gap respected
}

TEST(LinkModel, TenGigIsTenTimesFaster) {
  LinkModel slow(1.0), fast(10.0);
  EXPECT_EQ(slow.transmit(1500, 0), 10 * fast.transmit(1500, 0));
}

// --------------------------------------------------------- QueueManager

TEST(QueueManager, ProduceConsumeRoundTrip) {
  QueueManager qm(1000);
  const auto s = qm.add_stream(16);
  Frame f;
  f.stream = s;
  f.arrival_ns = 5000;
  EXPECT_EQ(qm.depth(s), 0u);
  EXPECT_TRUE(qm.produce(s, f));
  EXPECT_EQ(qm.depth(s), 1u);
  const auto got = qm.consume(s);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->arrival_ns, 5000u);
  EXPECT_EQ(qm.depth(s), 0u);
  EXPECT_FALSE(qm.consume(s).has_value());
}

TEST(QueueManager, DropsCountedWhenRingFull) {
  telemetry::MetricsRegistry reg;
  telemetry::QueueMetrics m = telemetry::QueueMetrics::create(reg);
  QueueManager qm;
  qm.attach_metrics(&m);
  const auto s = qm.add_stream(2);  // capacity rounds to 2 -> 1 usable slot
  Frame f;
  EXPECT_TRUE(qm.produce(s, f));
  EXPECT_FALSE(qm.produce(s, f));
  EXPECT_EQ(qm.depth(s), 1u);
  EXPECT_EQ(reg.counter("qm.enqueued").value(), 1u);
  EXPECT_EQ(reg.counter("qm.ring_full_pushes").value(), 1u);
}

TEST(QueueManager, BatchArrivalsQuantizesAndDrains) {
  QueueManager qm(/*quantum_ns=*/1000);
  const auto s = qm.add_stream(16);
  for (std::uint64_t t : {1000u, 2500u, 4000u}) {
    Frame f;
    f.arrival_ns = t;
    qm.produce(s, f);
  }
  const auto batch = qm.batch_arrivals(s, 2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1u);
  EXPECT_EQ(batch[1], 2u);  // 2500/1000 truncates
  EXPECT_EQ(qm.batch_arrivals(s, 10).size(), 1u);
  EXPECT_TRUE(qm.batch_arrivals(s, 10).empty());
}

TEST(QueueManager, BatchArrivalsFollowTheRingAcrossWrap) {
  // A 4-slot ring (3 usable) wraps every few frames.  Each round fills
  // the ring, batches at most two offsets, and consumes one frame the card
  // already knows of, so unbatched frames sit behind consumed slots.
  QueueManager qm(/*quantum_ns=*/1000);
  const auto s = qm.add_stream(4);
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::vector<std::uint16_t> offsets;
  const auto fill = [&] {
    for (;;) {
      Frame f;
      f.arrival_ns = produced * 1000;  // offset == frame number
      f.seq = produced;
      if (!qm.produce(s, f)) return;
      ++produced;
    }
  };
  const auto take = [&](std::size_t max) {
    for (const std::uint16_t off : qm.batch_arrivals(s, max)) {
      offsets.push_back(off);
    }
  };
  for (int round = 0; round < 40; ++round) {
    fill();
    take(1 + round % 2);
    ASSERT_LT(consumed, offsets.size());
    const auto f = qm.consume(s);
    ASSERT_TRUE(f);
    EXPECT_EQ(f->seq, consumed++);
  }
  take(10);
  while (qm.consume(s)) ++consumed;
  EXPECT_TRUE(qm.batch_arrivals(s, 10).empty());

  EXPECT_GT(produced, 40u);  // the ring wrapped many times
  EXPECT_EQ(consumed, produced);
  ASSERT_EQ(offsets.size(), produced);
  for (std::uint64_t n = 0; n < produced; ++n) {
    EXPECT_EQ(offsets[n], n) << "offset " << n;
  }
}

// Resident bytes of this process (field 2 of /proc/self/statm, in pages).
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(QueueManager, RingsCommitMemoryOnFirstTouch) {
  // 32 rings of 2^17 frames reserve 96 MB of address space; zero-filling
  // them would make all of it resident.
  const std::uint64_t before = resident_bytes();
  ASSERT_GT(before, 0u) << "no /proc/self/statm";
  QueueManager qm;
  for (int i = 0; i < 32; ++i) qm.add_stream(1 << 17);
  const std::uint64_t after = resident_bytes();
  const std::uint64_t rise = after > before ? after - before : 0;
  EXPECT_LT(rise, std::uint64_t{25} << 20)
      << "resident set rose by " << (rise >> 20) << " MB";

  const std::uint32_t s = 7;
  for (std::uint64_t n = 0; n < 1600; ++n) {
    Frame f;
    f.stream = s;
    f.seq = n;
    f.arrival_ns = n * 10;
    ASSERT_TRUE(qm.produce(s, f));
  }
  for (std::uint64_t n = 0; n < 1600; ++n) {
    const auto f = qm.consume(s);
    ASSERT_TRUE(f);
    EXPECT_EQ(f->seq, n);
    EXPECT_EQ(f->arrival_ns, n * 10);
  }
  EXPECT_FALSE(qm.consume(s));
}

// --------------------------------------------------- TransmissionEngine

// Each test sends one-grant bursts, the shape every winner-only decision
// hands the TE.

TEST(TransmissionEngine, TransmitsAndRecordsDelay) {
  telemetry::MetricsRegistry reg;
  QueueManager qm;
  LinkModel link(1.0);
  TransmissionEngine te(qm, link);
  const auto s = qm.add_stream(8);
  telemetry::TxMetrics m = telemetry::TxMetrics::create(reg, 1);
  te.attach_metrics(&m);
  Frame f;
  f.stream = s;
  f.bytes = 1500;
  f.arrival_ns = 1000;
  qm.produce(s, f);
  te.set_record_frames(true);
  const BlockGrant grant[] = {{s, /*emit_ns=*/5000}};
  std::vector<TxRecord> recs;
  EXPECT_EQ(te.transmit_block(grant, &recs), 1u);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].bytes, 1500u);
  EXPECT_EQ(recs[0].departure_ns, 5000u + 12000u);
  EXPECT_EQ(recs[0].delay_ns(), 16000u);
  EXPECT_EQ(reg.counter("te.tx_frames").value(), 1u);
  EXPECT_EQ(reg.counter("te.tx_bytes").value(), 1500u);
  EXPECT_EQ(reg.counter("stream.0.tx_frames").value(), 1u);
  EXPECT_EQ(te.records().size(), 1u);
}

TEST(TransmissionEngine, FrameCannotLeaveBeforeArrival) {
  QueueManager qm;
  LinkModel link(1.0);
  TransmissionEngine te(qm, link);
  const auto s = qm.add_stream(8);
  Frame f;
  f.stream = s;
  f.bytes = 1500;
  f.arrival_ns = 50000;
  qm.produce(s, f);
  const BlockGrant grant[] = {{s, /*emit_ns=*/0}};  // scheduled "early"
  std::vector<TxRecord> recs;
  ASSERT_EQ(te.transmit_block(grant, &recs), 1u);
  EXPECT_EQ(recs[0].departure_ns, 50000u + 12000u);
}

TEST(TransmissionEngine, SpuriousScheduleCounted) {
  QueueManager qm;
  LinkModel link(1.0);
  TransmissionEngine te(qm, link);
  const auto s = qm.add_stream(8);
  const BlockGrant grant[] = {{s, 0}};
  std::vector<TxRecord> recs;
  EXPECT_EQ(te.transmit_block(grant, &recs), 0u);
  EXPECT_TRUE(recs.empty());
  EXPECT_EQ(te.spurious_schedules(), 1u);
}

TEST(TransmissionEngine, RecordingCanBeDisabled) {
  QueueManager qm;
  LinkModel link(1.0);
  TransmissionEngine te(qm, link);
  te.set_record_frames(false);
  const auto s = qm.add_stream(8);
  Frame f;
  f.stream = s;
  qm.produce(s, f);
  const BlockGrant grant[] = {{s, 0}};
  std::vector<TxRecord> recs;
  EXPECT_EQ(te.transmit_block(grant, &recs), 1u);
  EXPECT_EQ(recs.size(), 1u);
  EXPECT_TRUE(te.records().empty());
}

}  // namespace
}  // namespace ss::queueing
