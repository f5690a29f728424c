// quickstart — the smallest complete use of the ShareStreams public API.
//
// Builds a 4-slot scheduler chip (the cycle-level simulation of the
// Virtex-I fabric), loads one EDF stream per slot, feeds requests, and
// prints which stream wins each decision cycle and why that order is the
// EDF order.  Start here; host_router.cpp shows the full endsystem, and
// `ss_cli run` runs it with metrics, traces, audit dumps, the profiler,
// the time series, the watchdog and the fault plane attached.
#include <cstdio>

#include "hw/scheduler_chip.hpp"

int main(int argc, char** /*argv*/) {
  using namespace ss::hw;

  if (argc > 1) {
    std::fprintf(stderr, "usage: quickstart (no arguments; see `ss_cli run` "
                         "for the instrumented pipeline)\n");
    return 2;
  }

  // 1. Configure the fabric: 4 stream-slots, DWCS comparators, winner-only
  //    routing (the max-finding configuration).
  ChipConfig cfg;
  cfg.slots = 4;
  cfg.cmp_mode = ComparisonMode::kTagOnly;  // EDF mode: deadlines only
  cfg.block_mode = false;
  SchedulerChip chip(cfg);

  // 2. Load per-stream service constraints into the Register Base blocks.
  //    Stream i requests service every `period` packet-times; its first
  //    deadline staggers the streams.
  const std::uint16_t periods[4] = {8, 8, 4, 2};  // a 1:1:2:4 split
  for (unsigned i = 0; i < 4; ++i) {
    SlotConfig slot;
    slot.mode = SlotMode::kEdf;
    slot.period = periods[i];
    slot.initial_deadline = Deadline{periods[i]};
    chip.load_slot(static_cast<SlotId>(i), slot);
  }

  // 3. Queue a few requests per stream (in the real system these are
  //    16-bit arrival-time offsets pushed over PCI by the Queue Manager).
  for (unsigned i = 0; i < 4; ++i) {
    for (int k = 0; k < 8; ++k) chip.push_request(static_cast<SlotId>(i));
  }

  // 4. Run decision cycles: each takes log2(4)=2 shuffle passes plus the
  //    priority-update and I/O cycles (13 hardware cycles at 4 slots).
  std::printf("cycle | winner | vtime | deadline met | hw cycles\n");
  std::printf("------+--------+-------+--------------+----------\n");
  std::uint64_t served[4] = {0, 0, 0, 0};
  for (int k = 0; k < 16; ++k) {
    const DecisionOutcome out = chip.run_decision_cycle();
    if (out.idle) break;
    const Grant& g = out.grants.front();
    std::printf("%5d | S%u     | %5llu | %12s | %9llu\n", k, g.slot + 1,
                static_cast<unsigned long long>(chip.vtime()),
                g.met_deadline ? "yes" : "LATE",
                static_cast<unsigned long long>(out.hw_cycles));
    ++served[g.slot];
  }

  std::printf("\nservice counts after 16 packet-times: S1=%llu S2=%llu "
              "S3=%llu S4=%llu (periods 8/8/4/2 -> expect 2/2/4/8)\n",
              static_cast<unsigned long long>(served[0]),
              static_cast<unsigned long long>(served[1]),
              static_cast<unsigned long long>(served[2]),
              static_cast<unsigned long long>(served[3]));
  std::printf("total hardware cycles: %llu for %llu decisions\n",
              static_cast<unsigned long long>(chip.hw_cycles()),
              static_cast<unsigned long long>(chip.decision_cycles()));
  return 0;
}
