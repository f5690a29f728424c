// micro — google-benchmark microbenchmarks of the hot paths: the Decision
// block's combinational ordering, network passes, full chip decision
// cycles (WR and BA across slot counts), SPSC ring ops, the software
// disciplines' per-packet cost, the DWCS software reference decision, and
// the chip against that oracle on one stream set (BM_Backlog32*).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dwcs/modes.hpp"
#include "dwcs/reference_scheduler.hpp"
#include "fabric/crossbar.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/shuffle.hpp"
#include "hw/streaming_unit.hpp"
#include "queueing/spsc_ring.hpp"
#include "sched/drr.hpp"
#include "sched/sfq.hpp"
#include "sched/timing_wheel.hpp"
#include "sched/wfq.hpp"
#include "util/rng.hpp"

namespace {

using namespace ss;

void BM_DecisionBlock(benchmark::State& state) {
  Rng rng(1);
  std::vector<hw::AttrWord> words(256);
  for (auto& w : words) {
    w.deadline = hw::Deadline{rng()};
    w.loss_num = static_cast<hw::Loss>(rng.below(4));
    w.loss_den = static_cast<hw::Loss>(1 + rng.below(4));
    w.arrival = hw::Arrival{rng()};
    w.pending = true;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto r = hw::decide(words[i & 255], words[(i + 1) & 255],
                              hw::ComparisonMode::kDwcsFull);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_DecisionBlock);

void BM_NetworkPass(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  hw::ShuffleNetwork net(n, hw::SortSchedule::kPerfectShuffle,
                         hw::ComparisonMode::kDwcsFull);
  Rng rng(2);
  std::vector<hw::AttrWord> words(n);
  for (unsigned i = 0; i < n; ++i) {
    words[i].deadline = hw::Deadline{rng()};
    words[i].id = static_cast<hw::SlotId>(i);
    words[i].pending = true;
  }
  for (auto _ : state) {
    net.load(words);
    net.run_all();
    benchmark::DoNotOptimize(net.winner());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkPass)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_ChipDecisionCycle(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const bool block = state.range(1) != 0;
  hw::ChipConfig cfg;
  cfg.slots = n;
  cfg.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.block_mode = block;
  hw::SchedulerChip chip(cfg);
  for (unsigned i = 0; i < n; ++i) {
    hw::SlotConfig sc;
    sc.mode = hw::SlotMode::kDwcs;
    sc.period = chip.period_per_decision_cycle();
    sc.loss_num = 1;
    sc.loss_den = 4;
    sc.initial_deadline = hw::Deadline{i + 1};
    chip.load_slot(static_cast<hw::SlotId>(i), sc);
  }
  for (auto _ : state) {
    for (unsigned i = 0; i < n; ++i) {
      chip.push_request(static_cast<hw::SlotId>(i));
    }
    const auto out = chip.run_decision_cycle();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipDecisionCycle)
    ->Args({4, 0})
    ->Args({32, 0})
    ->Args({4, 1})
    ->Args({32, 1});

void BM_SpscPushPop(benchmark::State& state) {
  queueing::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0, out = 0;
  for (auto _ : state) {
    ring.try_push(v++);
    ring.try_pop(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPushPop);

template <typename D>
void BM_Discipline(benchmark::State& state) {
  D d;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    d.enqueue({static_cast<std::uint32_t>(seq % 64), 1500, seq, seq});
    benchmark::DoNotOptimize(d.dequeue(seq));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Discipline<sched::Sfq>)->Name("BM_SoftwareSfq");
BENCHMARK(BM_Discipline<sched::Drr>)->Name("BM_SoftwareDrr");
BENCHMARK(BM_Discipline<sched::Wfq>)->Name("BM_SoftwareWfq");

void BM_TimingWheel(benchmark::State& state) {
  sched::TimingWheel tw(256, 1000);
  for (std::uint32_t s = 0; s < 64; ++s) {
    tw.set_relative_deadline(s, 1000 + s * 500);
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    tw.enqueue({static_cast<std::uint32_t>(seq % 64), 1500, seq * 100, seq});
    benchmark::DoNotOptimize(tw.dequeue(seq * 100));
    ++seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingWheel);

void BM_StreamingUnitRefillCycle(benchmark::State& state) {
  hw::PciModel pci;
  hw::SramBank bank(1 << 16, Nanos{2000});
  queueing::QueueManager qm(1000);
  qm.add_stream(1 << 16);
  hw::StreamingUnit su(hw::StreamingUnitConfig{}, pci, bank, 1);
  std::uint64_t produced = 0;
  std::uint16_t off;
  for (auto _ : state) {
    queueing::Frame f;
    f.arrival_ns = produced++ * 1000;
    qm.produce(0, f);
    if (su.needs_refill(0)) su.refill(0, qm);
    benchmark::DoNotOptimize(su.pop_arrival(0, off));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingUnitRefillCycle);

void BM_CrossbarCycle(benchmark::State& state) {
  const auto ports = static_cast<unsigned>(state.range(0));
  fabric::Crossbar xbar(ports, ports, 2, 1 << 12);
  std::uint64_t k = 0;
  fabric::FabricFrame f;
  for (auto _ : state) {
    for (unsigned i = 0; i < ports; ++i) {
      f.output_port = static_cast<std::uint32_t>((i + k) % ports);
      xbar.offer(i, f);
    }
    xbar.cycle();
    fabric::FabricFrame out;
    for (unsigned p = 0; p < ports; ++p) {
      while (xbar.pull(p, out)) {
      }
    }
    ++k;
  }
  state.SetItemsProcessed(state.iterations() * ports);
}
BENCHMARK(BM_CrossbarCycle)->Arg(4)->Arg(16);

void BM_DwcsReferenceDecision(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  dwcs::ReferenceScheduler sched;
  for (unsigned i = 0; i < n; ++i) {
    dwcs::StreamSpec s;
    s.mode = dwcs::StreamMode::kDwcs;
    s.period = 1 + i % 4;
    s.loss_num = 1;
    s.loss_den = 4;
    s.initial_deadline = i + 1;
    sched.add_stream(s);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    sched.push_request(static_cast<std::uint32_t>(k % n));
    benchmark::DoNotOptimize(sched.run_decision_cycle());
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DwcsReferenceDecision)->Arg(4)->Arg(16)->Arg(32);

// The backlog32 stream set of perfbench's workloads of record: 32
// fair-share streams of weights 1-4 in slot order, 100 frames per unit of
// weight, all queued at t=0, tag-only comparisons.  The chip (bitonic
// schedule, allocation-free decision API) and the software oracle drain
// the identical set, so the pair compares the two schedulers like for
// like.  One iteration drains the whole set outside the set-up; items are
// committed decision cycles.  The argument is the BA batch depth (1, 0 =
// the whole block, 4).
struct Backlog32 {
  std::vector<dwcs::StreamRequirement> reqs;
  std::vector<std::uint32_t> periods;
  std::vector<std::uint64_t> frames;

  Backlog32() {
    for (unsigned i = 0; i < 32; ++i) {
      dwcs::StreamRequirement r;
      r.kind = dwcs::RequirementKind::kFairShare;
      r.weight = 1.0 + static_cast<double>(i % 4);
      r.droppable = false;
      reqs.push_back(r);
      frames.push_back(100 * (1 + i % 4));
    }
    periods = dwcs::fair_share_periods(reqs);
  }
};

void BM_Backlog32Chip(benchmark::State& state) {
  const Backlog32 set;
  hw::ChipConfig cfg;
  cfg.slots = 32;
  cfg.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.schedule = hw::SortSchedule::kBitonic;
  cfg.block_mode = true;
  cfg.batch_depth = static_cast<unsigned>(state.range(0));
  hw::DecisionOutcome out;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    hw::SchedulerChip chip(cfg);
    for (unsigned i = 0; i < 32; ++i) {
      const auto s = static_cast<hw::SlotId>(i);
      chip.load_slot(s, dwcs::to_slot_config(set.reqs[i], set.periods[i]));
      for (std::uint64_t f = 0; f < set.frames[i]; ++f) {
        chip.push_request(s, hw::Arrival{0});
      }
    }
    state.ResumeTiming();
    for (;;) {
      chip.run_decision_cycle(out);
      benchmark::DoNotOptimize(out);
      if (out.idle) break;
      ++decisions;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_Backlog32Chip)->Arg(1)->Arg(0)->Arg(4);

void BM_Backlog32Oracle(benchmark::State& state) {
  const Backlog32 set;
  dwcs::ReferenceScheduler::Options opt;
  opt.block_mode = true;
  opt.edf_comparison = true;
  opt.batch_depth = static_cast<unsigned>(state.range(0));
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dwcs::ReferenceScheduler sched(opt);
    for (unsigned i = 0; i < 32; ++i) {
      sched.add_stream(dwcs::to_stream_spec(set.reqs[i], set.periods[i]));
      for (std::uint64_t f = 0; f < set.frames[i]; ++f) {
        sched.push_request(i, 0);
      }
    }
    state.ResumeTiming();
    for (;;) {
      const dwcs::SwDecision d = sched.run_decision_cycle();
      benchmark::DoNotOptimize(d);
      if (d.idle) break;
      ++decisions;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decisions));
}
BENCHMARK(BM_Backlog32Oracle)->Arg(1)->Arg(0)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
