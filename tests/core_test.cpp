// core_test.cpp — the system layer: QoS monitor, aggregation manager,
// block-reuse policy, the Figure-1 framework, and the two realizations.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/block_policy.hpp"
#include "core/endsystem.hpp"
#include "core/framework.hpp"
#include "core/linecard.hpp"
#include "core/qos_monitor.hpp"
#include "telemetry/frame_trace.hpp"

namespace ss::core {
namespace {

// ------------------------------------------------------------ QosMonitor

queueing::TxRecord rec(std::uint32_t stream, std::uint32_t bytes,
                       std::uint64_t arr, std::uint64_t dep) {
  return {stream, bytes, arr, dep};
}

TEST(QosMonitor, BandwidthWindows) {
  QosMonitor mon(1, /*window=*/1'000'000);  // 1 ms windows
  // 2 MB in the first ms, 1 MB in the second.
  mon.record(rec(0, 1'000'000, 0, 100'000));
  mon.record(rec(0, 1'000'000, 0, 600'000));
  mon.record(rec(0, 1'000'000, 0, 1'500'000));
  mon.finish();
  const auto& bw = mon.bandwidth_series(0);
  ASSERT_GE(bw.size(), 2u);
  EXPECT_NEAR(bw[0].mbps, 2000.0, 1.0);  // 2 MB / 1 ms = 2000 MBps
  EXPECT_NEAR(bw[1].mbps, 1000.0, 1.0);
}

TEST(QosMonitor, DelaySeriesAndAggregates) {
  QosMonitor mon(2, 1'000'000);
  mon.record(rec(0, 100, 1000, 3000));   // 2 us
  mon.record(rec(0, 100, 2000, 8000));   // 6 us
  mon.record(rec(1, 100, 0, 10000));     // 10 us
  mon.finish();
  EXPECT_EQ(mon.delay_series(0).size(), 2u);
  EXPECT_NEAR(mon.mean_delay_us(0), 4.0, 1e-9);
  EXPECT_NEAR(mon.mean_jitter_us(0), 4.0, 1e-9);
  EXPECT_NEAR(mon.mean_delay_us(1), 10.0, 1e-9);
  EXPECT_EQ(mon.frames(0), 2u);
  EXPECT_EQ(mon.bytes(0), 200u);
}

TEST(QosMonitor, MeanMbpsOverRunSpan) {
  QosMonitor mon(1, 1'000'000);
  mon.record(rec(0, 500'000, 0, 0));
  mon.record(rec(0, 500'000, 0, 1'000'000));  // 1 MB over 1 ms
  mon.finish();
  EXPECT_NEAR(mon.mean_mbps(0), 1000.0, 1.0);
}

TEST(QosMonitor, DelayPercentilesAndMax) {
  QosMonitor mon(1, 1'000'000);
  for (int i = 1; i <= 100; ++i) {
    mon.record(rec(0, 10, 0, static_cast<std::uint64_t>(i) * 1000));  // i us
  }
  mon.finish();
  EXPECT_NEAR(mon.delay_percentile_us(0, 50), 50.5, 0.01);
  EXPECT_NEAR(mon.delay_percentile_us(0, 99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(mon.max_delay_us(0), 100.0);
  EXPECT_DOUBLE_EQ(mon.delay_percentile_us(0, 100), 100.0);
}

TEST(QosMonitor, PercentileZeroWithoutSeries) {
  QosMonitor mon(1, 1000);
  mon.set_keep_series(false);
  mon.record(rec(0, 10, 0, 5000));
  EXPECT_EQ(mon.delay_percentile_us(0, 99), 0.0);
  EXPECT_DOUBLE_EQ(mon.max_delay_us(0), 5.0);  // aggregate still tracked
}

TEST(QosMonitor, SeriesCanBeDisabled) {
  QosMonitor mon(1, 1000);
  mon.set_keep_series(false);
  for (int i = 0; i < 100; ++i) mon.record(rec(0, 10, 0, i * 10));
  mon.finish();
  EXPECT_TRUE(mon.bandwidth_series(0).empty());
  EXPECT_TRUE(mon.delay_series(0).empty());
  EXPECT_EQ(mon.frames(0), 100u);  // aggregates still tracked
}

// ------------------------------------------------------------ Aggregation

TEST(Aggregation, RoundRobinWithinSingleSet) {
  AggregationManager agg;
  const auto slot = agg.bind_slot({{/*streamlets=*/4, /*weight=*/1}});
  std::vector<std::uint32_t> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(agg.on_grant(slot).streamlet);
  EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(Aggregation, HundredStreamletsEqualShares) {
  // The Figure-10 setup: 100 streamlets per slot, equal bandwidth.
  AggregationManager agg;
  const auto slot = agg.bind_slot({{100, 1}});
  for (int i = 0; i < 100 * 50; ++i) agg.on_grant(slot);
  for (std::uint32_t s = 0; s < 100; ++s) {
    EXPECT_EQ(agg.grants(slot)[s], 50u) << "streamlet " << s;
  }
}

TEST(Aggregation, TwoSetsWeightedTwoToOne) {
  // Figure 10's Stream-slot 4: two streamlet sets, set 1 at double the
  // bandwidth of set 2.
  AggregationManager agg;
  const auto slot = agg.bind_slot({{50, 2}, {50, 1}});
  const int kGrants = 3000;
  for (int i = 0; i < kGrants; ++i) agg.on_grant(slot);
  const double s0 = static_cast<double>(agg.set_grants(slot, 0));
  const double s1 = static_cast<double>(agg.set_grants(slot, 1));
  EXPECT_NEAR(s0 / s1, 2.0, 0.01);
  // Within each set, streamlets stay equal.
  for (std::uint32_t i = 1; i < 50; ++i) {
    EXPECT_NEAR(static_cast<double>(agg.grants(slot)[i]),
                static_cast<double>(agg.grants(slot)[0]), 1.0);
  }
}

TEST(Aggregation, MultipleSlotsIndependent) {
  AggregationManager agg;
  const auto a = agg.bind_slot({{2, 1}});
  const auto b = agg.bind_slot({{3, 1}});
  EXPECT_EQ(agg.streamlet_count(a), 2u);
  EXPECT_EQ(agg.streamlet_count(b), 3u);
  agg.on_grant(a);
  EXPECT_EQ(agg.grants(a)[0], 1u);
  EXPECT_EQ(agg.grants(b)[0], 0u);
}

TEST(Aggregation, PickIdentifiesSet) {
  AggregationManager agg;
  const auto slot = agg.bind_slot({{1, 1}, {1, 1}});
  const auto p1 = agg.on_grant(slot);
  const auto p2 = agg.on_grant(slot);
  EXPECT_NE(p1.set, p2.set);  // equal weights alternate
}

// ----------------------------------------------------------- BlockPolicy

TEST(BlockPolicy, MonotoneTagsKeepBlockValid) {
  BlockReuseChecker chk;
  chk.new_block({10, 20, 30});
  EXPECT_TRUE(chk.on_new_tag(30));
  EXPECT_TRUE(chk.on_new_tag(31));
  EXPECT_TRUE(chk.block_valid());
  EXPECT_EQ(chk.reuses(), 2u);
}

TEST(BlockPolicy, SmallerTagInvalidates) {
  BlockReuseChecker chk;
  chk.new_block({10, 20, 30});
  EXPECT_FALSE(chk.on_new_tag(25));
  EXPECT_FALSE(chk.block_valid());
  EXPECT_FALSE(chk.on_new_tag(100));  // stays invalid until a new block
  EXPECT_EQ(chk.invalidations(), 1u);
  chk.new_block({40});
  EXPECT_TRUE(chk.on_new_tag(41));
}

TEST(BlockPolicy, EmptyBlockNeverValid) {
  BlockReuseChecker chk;
  chk.new_block({});
  EXPECT_FALSE(chk.block_valid());
  EXPECT_FALSE(chk.on_new_tag(1));
}

// ------------------------------------------------------------- Framework

TEST(Framework, GigabitFourStreamsIsFeasible) {
  const SolutionFramework fw;
  const Solution s = fw.solve({4, 1500, 1.0});
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.slots, 4u);
  EXPECT_EQ(s.streams_per_slot, 1u);
  EXPECT_EQ(s.degradation, 0.0);
  EXPECT_FALSE(s.device.empty());
}

TEST(Framework, SixtyFourByteTenGigNeedsBlockOrDegrades) {
  const SolutionFramework fw;
  const Solution wr = fw.evaluate({32, 64, 10.0}, 32,
                                  hw::ArchConfig::kWinnerRouting, false);
  EXPECT_FALSE(wr.feasible);
  EXPECT_GT(wr.degradation, 0.0);
  const Solution ba = fw.evaluate({32, 64, 10.0}, 32,
                                  hw::ArchConfig::kBlockArchitecture, true);
  EXPECT_GT(ba.achievable_rate, wr.achievable_rate);
}

TEST(Framework, ManyStreamsForceAggregation) {
  const SolutionFramework fw;
  const Solution s = fw.solve({320, 1500, 1.0});
  EXPECT_EQ(s.slots, 32u);  // 5-bit ID ceiling
  EXPECT_EQ(s.streams_per_slot, 10u);
}

TEST(Framework, RequiredRateScalesWithLineAndFrame) {
  const SolutionFramework fw;
  const Solution a = fw.evaluate({4, 1500, 1.0}, 4,
                                 hw::ArchConfig::kWinnerRouting, false);
  const Solution b = fw.evaluate({4, 1500, 10.0}, 4,
                                 hw::ArchConfig::kWinnerRouting, false);
  EXPECT_NEAR(b.required_rate / a.required_rate, 10.0, 0.01);
}

TEST(Framework, ComplexityRanking) {
  const auto v = discipline_complexity(32);
  ASSERT_GE(v.size(), 5u);
  // FCFS is the floor; DWCS tops the chart (Figure 1b's stacking).
  double fcfs = 0, dwcs = 0, wfq = 0;
  for (const auto& c : v) {
    if (c.discipline == "FCFS") fcfs = c.complexity_index;
    if (c.discipline.rfind("DWCS", 0) == 0) dwcs = c.complexity_index;
    if (c.discipline.rfind("WFQ", 0) == 0) wfq = c.complexity_index;
  }
  EXPECT_GT(wfq, fcfs);
  EXPECT_GT(dwcs, wfq);
}

TEST(Framework, OnlyDwcsUpdatesEveryCycle) {
  for (const auto& c : discipline_complexity(16)) {
    EXPECT_EQ(c.per_decision_update, c.discipline.rfind("DWCS", 0) == 0);
  }
}

// -------------------------------------------------------------- Linecard

hw::SlotConfig edf_slot(std::uint16_t period, std::uint64_t dl0) {
  hw::SlotConfig c;
  c.mode = hw::SlotMode::kEdf;
  c.period = period;
  c.initial_deadline = hw::Deadline{dl0};
  return c;
}

TEST(Linecard, ClockDefaultsFromAreaModelCappedAt100) {
  LinecardConfig cfg;
  cfg.chip.slots = 4;
  Linecard lc(cfg);
  EXPECT_GT(lc.clock_mhz(), 50.0);
  EXPECT_LE(lc.clock_mhz(), 100.0);
}

TEST(Linecard, BackloggedRunHitsCalibratedRate) {
  LinecardConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.clock_mhz = 100.0;  // the RC1000 measurement condition
  Linecard lc(cfg);
  for (unsigned i = 0; i < 4; ++i) lc.load_slot(i, edf_slot(4, i + 1));
  for (int k = 0; k < 2000; ++k) {
    for (unsigned i = 0; i < 4; ++i) lc.on_fabric_arrival(i, 0);
  }
  const auto rep = lc.run(8000);
  EXPECT_EQ(rep.frames, 8000u);
  // 13 cycles/decision at 100 MHz -> 7.69 M pps (paper: 7.6 M).
  EXPECT_NEAR(rep.packets_per_sec, 7.69e6, 0.1e6);
}

TEST(Linecard, WinnerIdLandsInSramPartition) {
  LinecardConfig cfg;
  cfg.chip.slots = 2;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  Linecard lc(cfg);
  lc.load_slot(0, edf_slot(1, 5));
  lc.load_slot(1, edf_slot(1, 2));
  lc.on_fabric_arrival(0, 0);
  lc.on_fabric_arrival(1, 0);
  lc.run(1);
  EXPECT_EQ(lc.last_winner_id(), 1u);  // earlier deadline
}

TEST(Linecard, IdlesOutWhenFabricStops) {
  LinecardConfig cfg;
  cfg.chip.slots = 2;
  Linecard lc(cfg);
  lc.load_slot(0, edf_slot(1, 1));
  lc.load_slot(1, edf_slot(1, 1));
  lc.on_fabric_arrival(0, 0);
  const auto rep = lc.run(100);
  EXPECT_EQ(rep.frames, 1u);  // granted what existed, then stopped
}

// ------------------------------------------------------------- Endsystem

TEST(Endsystem, FairShareUtilizationIsFull) {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  Endsystem es(cfg);
  for (double w : {1.0, 1.0, 2.0, 4.0}) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = w;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(1000), 1500);
  }
  EXPECT_NEAR(es.utilization(), 1.0, 1e-9);
}

TEST(Endsystem, SmokeRunDeliversEveryFrame) {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.keep_series = false;
  Endsystem es(cfg);
  for (double w : {1.0, 1.0, 2.0, 4.0}) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = w;
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(100), 1500);
  }
  const auto rep = es.run(500);
  EXPECT_EQ(rep.frames, 4u * 500u);
  EXPECT_EQ(rep.dropped_late, 0u);
  EXPECT_EQ(rep.spurious_schedules, 0u);
  EXPECT_GT(rep.pps_excl_pci, 0.0);
  EXPECT_GT(rep.pps_excl_pci, rep.pps_incl_pci);
  EXPECT_GT(rep.pci_ns, 0u);
}

TEST(Endsystem, PciBatchingReducesModelledOverhead) {
  auto run_with_batch = [](unsigned batch) {
    EndsystemConfig cfg;
    cfg.chip.slots = 2;
    cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
    cfg.pci_batch = batch;
    cfg.keep_series = false;
    Endsystem es(cfg);
    for (int i = 0; i < 2; ++i) {
      dwcs::StreamRequirement r;
      r.kind = dwcs::RequirementKind::kFairShare;
      r.weight = 1.0;
      r.droppable = false;
      es.add_stream(r, std::make_unique<queueing::CbrGen>(100), 1500);
    }
    return es.run(2000).pci_ns;
  };
  EXPECT_LT(run_with_batch(64), run_with_batch(1));
}

// The modeled PCI time of a run is exactly the fixed-batch formula: per
// stream, every full batch of `pci_batch` 16-bit offsets is one PIO
// write, the leftover offsets are one more at the end, and each committed
// WR decision reads its one Stream ID back with one PIO read.
TEST(Endsystem, PciAccountingIsTheFixedBatchFormula) {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.pci_batch = 16;
  cfg.keep_series = false;
  Endsystem es(cfg);
  for (double w : {1.0, 2.0, 1.0, 4.0}) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = w;
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(300), 1500);
  }
  // Remainders 4, 5, 0 and 5 offsets; stream 3 never fills a batch.
  const std::vector<std::uint64_t> frames = {100, 37, 64, 5};
  const auto rep = es.run(frames);

  const hw::PciModel pci(cfg.pci);
  std::uint64_t want = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t n : frames) {
    total += n;
    want += (n / cfg.pci_batch) *
            count(pci.pio_write(std::size_t{cfg.pci_batch} * 2));
    if (const std::uint64_t rest = n % cfg.pci_batch; rest != 0) {
      want += count(pci.pio_write(static_cast<std::size_t>(rest) * 2));
    }
  }
  ASSERT_EQ(rep.frames, total);
  ASSERT_EQ(rep.committed_decisions, total) << "WR grants one frame each";
  want += rep.committed_decisions * count(pci.pio_read(1));
  EXPECT_EQ(rep.pci_ns, want);
}

// Set-up errors are exceptions, not asserts, so they hold in every build
// type: an over-full stream set used to make run() spin forever once
// NDEBUG compiled the assert away.
dwcs::StreamRequirement fair_share(double w) {
  dwcs::StreamRequirement r;
  r.kind = dwcs::RequirementKind::kFairShare;
  r.weight = w;
  return r;
}

TEST(Endsystem, RejectsMoreStreamsThanSlots) {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  Endsystem es(cfg);
  for (int i = 0; i < 4; ++i) {
    es.add_stream(fair_share(1.0), std::make_unique<queueing::CbrGen>(0),
                  1500);
  }
  EXPECT_THROW(es.add_stream(fair_share(1.0),
                             std::make_unique<queueing::CbrGen>(0), 1500),
               std::length_error);
}

TEST(Endsystem, RejectsFrameCountsOfTheWrongLength) {
  EndsystemConfig cfg;
  cfg.chip.slots = 4;
  Endsystem es(cfg);
  for (int i = 0; i < 2; ++i) {
    es.add_stream(fair_share(1.0), std::make_unique<queueing::CbrGen>(0),
                  1500);
  }
  EXPECT_THROW(es.run(std::vector<std::uint64_t>{10, 10, 10}),
               std::invalid_argument);
}

// 16 equal-weight fair-share streams (the run stays inside the chip's
// 16-bit horizon), every frame queued at t=0, whole-block decisions.
std::uint64_t run_backlog16(std::uint64_t frames_per_stream) {
  EndsystemConfig cfg;
  cfg.chip.slots = 16;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.chip.schedule = hw::SortSchedule::kBitonic;
  cfg.chip.block_mode = true;
  cfg.chip.batch_depth = 0;
  cfg.ring_capacity = 1024;
  cfg.keep_series = false;
  cfg.delay_histogram = true;
  Endsystem es(cfg);
  for (int i = 0; i < 16; ++i) {
    dwcs::StreamRequirement r = fair_share(1.0);
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(0), 1500);
  }
  return es.run(frames_per_stream).frames;
}

// Peak resident set of this process so far, in KiB (VmHWM, which a fresh
// exec starts from zero; getrusage's ru_maxrss carries across exec).
long vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  const std::string key = "VmHWM:";
  for (std::string line; std::getline(status, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stol(line.substr(key.size()));
    }
  }
  return -1;
}

// The two run lengths LongRunPeakMemoryIsBounded compares.  Each prints
// its process's peak resident set, so it must run alone in a fresh
// process to measure its own run: in one process with other tests it
// reads where earlier tests left the heap.
constexpr const char* kPeakLine = "peak_rss_kib ";

TEST(EndsystemPeakMemory, Run160kFrames) {
  EXPECT_EQ(run_backlog16(10'000), 160'000u);
  std::cout << kPeakLine << vm_hwm_kib() << std::endl;
}

TEST(EndsystemPeakMemory, Run6400kFrames) {
  EXPECT_EQ(run_backlog16(400'000), 6'400'000u);
  std::cout << kPeakLine << vm_hwm_kib() << std::endl;
}

// Runs this test binary again with only `test` selected and returns the
// peak resident set that run printed, in KiB (-1 if it failed or printed
// none).
long peak_kib_in_fresh_process(const std::string& test) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) return -1;
  exe[len] = '\0';
  const std::string cmd =
      "'" + std::string(exe) + "' --gtest_filter=" + test + " 2>&1";
  FILE* out = popen(cmd.c_str(), "r");
  if (out == nullptr) return -1;
  const std::string key = kPeakLine;
  long kib = -1;
  char line[512];
  while (std::fgets(line, sizeof line, out) != nullptr) {
    const std::string l(line);
    if (l.compare(0, key.size(), key) == 0) {
      kib = std::stol(l.substr(key.size()));
    }
  }
  return pclose(out) == 0 ? kib : -1;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif

// Frames are generated a chunk at a time and no per-frame log is kept,
// so a run 40x longer peaks at the same resident set.  Each length runs
// in its own process, so neither run inherits the other's heap.
TEST(Endsystem, LongRunPeakMemoryIsBounded) {
  if (kSanitizerAllocator) {
    GTEST_SKIP() << "AddressSanitizer and ThreadSanitizer allocators keep "
                    "freed chunk buffers resident, so peak RSS grows with "
                    "the run for reasons outside the program";
  }
  const long short_run_kib =
      peak_kib_in_fresh_process("EndsystemPeakMemory.Run160kFrames");
  const long long_run_kib =
      peak_kib_in_fresh_process("EndsystemPeakMemory.Run6400kFrames");
  ASSERT_GT(short_run_kib, 0) << "the 160k-frame run failed";
  ASSERT_GT(long_run_kib, 0) << "the 6.4M-frame run failed";
  EXPECT_LE(static_cast<double>(long_run_kib),
            1.10 * static_cast<double>(short_run_kib))
      << "peak RSS " << short_run_kib << " KiB after 160k frames, "
      << long_run_kib << " KiB after 6.4M";
}

// The ids of every async span event of phase `ph` ("b" opens a frame's
// span at arrival, "e" closes it at transmit or drop).
std::set<std::string> span_ids(const std::string& json, char ph) {
  const std::string key = std::string("{\"ph\":\"") + ph +
                          "\",\"cat\":\"frame\",\"id\":\"";
  std::set<std::string> ids;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t from = at + key.size();
    ids.insert(json.substr(from, json.find('"', from) - from));
  }
  return ids;
}

TEST(Endsystem, FrameTraceSpansPairAcrossGenerationChunks) {
  // 5,000 frames a stream span two generation chunks; the trace keeps
  // every event, so each frame's span must open and close under one id.
  telemetry::FrameTrace ft(1 << 17);
  EndsystemConfig cfg;
  cfg.chip.slots = 2;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.keep_series = false;
  cfg.frame_trace = &ft;
  Endsystem es(cfg);
  for (int i = 0; i < 2; ++i) {
    dwcs::StreamRequirement r = fair_share(1.0);
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(100), 1500);
  }
  const auto rep = es.run(5'000);
  ASSERT_EQ(rep.frames, 10'000u);
  ASSERT_EQ(ft.dropped(), 0u);

  const std::string json = ft.to_chrome_json();
  const std::set<std::string> opened = span_ids(json, 'b');
  EXPECT_EQ(opened.size(), 10'000u) << "frame ids repeat";
  EXPECT_TRUE(opened == span_ids(json, 'e'))
      << "span ids that open and close differ";
}

}  // namespace
}  // namespace ss::core
