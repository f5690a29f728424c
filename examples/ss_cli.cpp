// ss_cli — a command-line front end over the public API.
//
//   ss_cli solve <streams> <frame_bytes> <gbps>   Figure-1 framework query
//   ss_cli admit <spec-file|->                    parse + admission verdict
//   ss_cli area  <slots>                          Virtex-I/II area & clock
//   ss_cli trace                                  a traced 8-cycle DWCS run
//   ss_cli run <streams> <frames> [flags]         instrumented pipeline run
//   ss_cli report <run-document>                  render a run document
//
// Run without arguments for a demonstration of the subcommands.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "core/endsystem.hpp"
#include "core/framework.hpp"
#include "core/spec_parser.hpp"
#include "hw/area_model.hpp"
#include "hw/scheduler_chip.hpp"
#include "hw/trace.hpp"
#include "telemetry/observability.hpp"
#include "telemetry/report.hpp"
#include "util/sim_time.hpp"

namespace {

int cmd_solve(unsigned streams, std::uint64_t frame, double gbps) {
  const ss::core::SolutionFramework fw;
  const ss::core::Solution s = fw.solve({streams, frame, gbps});
  std::printf("application: %u streams, %llu B frames, %.1f Gb/s\n", streams,
              static_cast<unsigned long long>(frame), gbps);
  std::printf("required:    %.3e decisions/s\n", s.required_rate);
  std::printf("solution:    %s%s, %u slots, %u stream(s)/slot, %s\n",
              s.arch == ss::hw::ArchConfig::kBlockArchitecture ? "BA" : "WR",
              s.block_scheduling ? "+block-scheduling" : "", s.slots,
              s.streams_per_slot, s.device.c_str());
  std::printf("achievable:  %.3e frames/s -> %s", s.achievable_rate,
              s.feasible ? "FEASIBLE\n" : "infeasible");
  if (!s.feasible) {
    std::printf(" (%.1f%% of packet-times missed)\n", s.degradation * 100);
  }
  return s.feasible ? 0 : 2;
}

int cmd_admit(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const auto parsed = ss::core::parse_stream_specs(text);
  if (!parsed.ok) {
    for (const auto& e : parsed.errors) {
      std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), e.line,
                   e.message.c_str());
    }
    return 1;
  }
  const auto rep = ss::core::AdmissionController::analyze(parsed.streams);
  std::printf("%zu streams, reserved utilization %.3f -> %s\n",
              parsed.streams.size(), rep.reserved_utilization,
              rep.admitted ? "ADMITTED" : "REJECTED");
  for (std::size_t i = 0; i < rep.entries.size(); ++i) {
    const auto& e = rep.entries[i];
    std::printf("  [%zu] %-40s share=%.3f delay<=%.0f pt%s\n", i + 1,
                ss::core::render_stream_spec(parsed.streams[i]).c_str(),
                e.guaranteed_share, e.delay_bound_packet_times,
                e.best_effort ? " (best effort)" : "");
  }
  if (!rep.admitted) std::printf("  reason: %s\n", rep.reason.c_str());
  return rep.admitted ? 0 : 2;
}

int cmd_area(unsigned slots) {
  for (const auto fam :
       {ss::hw::FpgaFamily::kVirtexI, ss::hw::FpgaFamily::kVirtexII}) {
    const ss::hw::AreaModel m(fam);
    for (const auto cfg : {ss::hw::ArchConfig::kBlockArchitecture,
                           ss::hw::ArchConfig::kWinnerRouting}) {
      const auto b = m.area(slots, cfg);
      const auto* dev = m.smallest_fit(slots, cfg);
      std::printf("%s %s: %u slices (ctl %u + reg %u + dec %u + route %u), "
                  "%.1f MHz, fits %s\n",
                  fam == ss::hw::FpgaFamily::kVirtexI ? "Virtex-I " : "Virtex-II",
                  cfg == ss::hw::ArchConfig::kBlockArchitecture ? "BA" : "WR",
                  b.total(), b.control_slices, b.register_slices,
                  b.decision_slices, b.routing_slices,
                  m.clock_mhz(slots, cfg),
                  dev ? dev->name.c_str() : "(nothing)");
    }
  }
  return 0;
}

int cmd_trace() {
  ss::hw::ChipConfig cfg;
  cfg.slots = 4;
  cfg.cmp_mode = ss::hw::ComparisonMode::kDwcsFull;
  ss::hw::SchedulerChip chip(cfg);
  for (unsigned i = 0; i < 4; ++i) {
    ss::hw::SlotConfig sc;
    sc.mode = ss::hw::SlotMode::kDwcs;
    sc.period = 2 + i;
    sc.loss_num = 1;
    sc.loss_den = 4;
    sc.initial_deadline = ss::hw::Deadline{i + 1};
    chip.load_slot(static_cast<ss::hw::SlotId>(i), sc);
  }
  ss::hw::Tracer tracer;
  chip.attach_tracer(&tracer);
  for (int k = 0; k < 8; ++k) {
    for (unsigned i = 0; i < 4; ++i) {
      if ((k + i) % 2 == 0) chip.push_request(static_cast<ss::hw::SlotId>(i));
    }
    chip.run_decision_cycle();
  }
  std::fputs(tracer.render_all().c_str(), stdout);
  return 0;
}

void usage() {
  std::puts("usage: ss_cli solve <streams> <frame_bytes> <gbps>");
  std::puts("       ss_cli admit <spec-file|->");
  std::puts("       ss_cli area <slots>");
  std::puts("       ss_cli trace");
  std::puts("       ss_cli run <streams> <frames> [--fault-seed S]");
  std::puts("                  [--inject-fault K] [--overload]");
  std::fputs(ss::telemetry::ObservabilityOptions::usage(18).c_str(), stdout);
  std::puts("       ss_cli report FILE");
}

/// `run`: the one instrumented pipeline command.  Window-constrained
/// DWCS streams go through QM -> PCI -> chip -> TE -> link with whatever
/// observability planes the shared flags ask for, optionally under a
/// seeded fault plane (--fault-seed), with the chip killed at decision
/// attempt K (--inject-fault) or with every stream demanding twice its
/// share (--overload).
int cmd_run(int argc, char** argv) {
  using namespace ss;
  const auto bad = [](const char* what, const char* value) {
    std::fprintf(stderr, "run: %s must be a positive integer, not '%s'\n",
                 what, value);
    return 2;
  };
  std::uint64_t streams = 0, frames = 0, fault_seed = 0, inject_fault = 0;
  bool overload = false;
  telemetry::ObservabilityOptions opts;
  if (!telemetry::parse_count(argv[2], streams) || streams < 2 ||
      streams > 32 || (streams & (streams - 1)) != 0) {
    std::fprintf(stderr, "run: streams must be a power of two in 2..32\n");
    return 2;
  }
  if (!telemetry::parse_count(argv[3], frames) || frames == 0) {
    return bad("frames", argv[3]);
  }
  for (int i = 4; i < argc; ++i) {
    switch (opts.take(argc, argv, i, "run")) {
      case telemetry::ObservabilityOptions::Flag::kTaken: continue;
      case telemetry::ObservabilityOptions::Flag::kBad: return 2;
      case telemetry::ObservabilityOptions::Flag::kOther: break;
    }
    const std::string a = argv[i];
    if (a == "--overload") {
      overload = true;
    } else if ((a == "--fault-seed" || a == "--inject-fault") &&
               i + 1 < argc) {
      // Seed 0 means "fault plane off" and attempt 0 "never", so both
      // would silently run fault-free: refuse them.
      std::uint64_t& dst = a == "--fault-seed" ? fault_seed : inject_fault;
      if (!telemetry::parse_count(argv[i + 1], dst) || dst == 0) {
        return bad(argv[i], argv[i + 1]);
      }
      ++i;
    } else {
      usage();
      return 2;
    }
  }

  core::EndsystemConfig cfg;
  cfg.chip.slots = static_cast<unsigned>(streams);
  cfg.chip.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.keep_series = false;
  cfg.delay_histogram = true;  // streaming percentiles, O(1) memory
  if (fault_seed != 0) {
    cfg.faults.seed = fault_seed;
    cfg.faults.pci_fault_per64k = 700;  // ~1% per bus transaction
    cfg.faults.sram_fault_per64k = 700;
    cfg.faults.chip_fault_per64k = 700;
  }
  if (inject_fault != 0) {
    // Hard chip death at the K-th decision attempt: exercises failover.
    cfg.faults.chip_fail_after = inject_fault;
    if (cfg.faults.seed == 0) cfg.faults.seed = 1;
  }
  telemetry::Observability obs(opts, static_cast<std::uint32_t>(streams),
                               /*profiled=*/true, cfg.faults.enabled());
  cfg.metrics = obs.metrics();
  cfg.frame_trace = obs.frame_trace();
  cfg.audit = obs.audit();
  cfg.profiler = obs.profiler();
  core::Endsystem es(cfg);

  const double ptime_ns = packet_time_ns(1500, cfg.link_gbps);
  // --overload: every stream demands twice its fair share, so window
  // violations (and their burn attribution) are guaranteed — the
  // deterministic way to trip the watchdog's burn_rate_spike rule.
  const std::uint64_t period = overload ? streams / 2 : streams;
  for (unsigned i = 0; i < streams; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kWindowConstrained;
    r.period = period;
    r.loss_num = 1;
    r.loss_den = 4;
    r.initial_deadline = i + 1;
    es.add_stream(r,
                  std::make_unique<queueing::CbrGen>(static_cast<std::uint64_t>(
                      ptime_ns * static_cast<double>(period))),
                  1500);
  }
  obs.start();
  const auto rep = es.run(frames);

  std::printf("run: %llu streams x %llu frames -> %llu transmitted in %llu "
              "decision cycles (%.3e pps excl PCI)\n",
              static_cast<unsigned long long>(streams),
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(rep.frames),
              static_cast<unsigned long long>(rep.decision_cycles),
              rep.pps_excl_pci);
  std::printf("stream 0: p50=%.1f us p99=%.1f us (streaming estimate)\n",
              es.monitor().delay_percentile_est_us(0, 50.0),
              es.monitor().delay_percentile_est_us(0, 99.0));
  if (cfg.faults.enabled()) {
    std::printf("fault plane: %llu faults injected, %llu retries, "
                "%llu recoveries, %llu exhausted\n",
                static_cast<unsigned long long>(rep.faults_injected),
                static_cast<unsigned long long>(rep.robust.retries),
                static_cast<unsigned long long>(rep.robust.recoveries),
                static_cast<unsigned long long>(rep.robust.exhausted));
    std::printf("%s\n", rep.failed_over
                            ? "FAILED OVER to the software scheduler — every "
                              "queued frame still reached the wire"
                            : "hardware path survived: every fault recovered "
                              "within the retry bound");
  }
  return obs.finish("run") ? 0 : 1;
}

/// `report`: render a run document as one text page.
int cmd_report(const std::string& path) {
  const ss::telemetry::Report rep = ss::telemetry::build_report(path);
  if (!rep.loaded) {
    std::fprintf(stderr, "report: %s is not a readable ss-run-v1 document\n",
                 path.c_str());
    return 2;
  }
  std::printf("%s", rep.text.c_str());
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    // Demonstration mode: one of everything.
    std::puts("== ss_cli demo (run with a subcommand for real use) ==\n");
    std::puts("--- solve 32 1500 10.0 ---");
    cmd_solve(32, 1500, 10.0);
    std::puts("\n--- area 16 ---");
    cmd_area(16);
    std::puts("\n--- trace ---");
    cmd_trace();
    usage();
    return 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "solve" && argc == 5) {
    return cmd_solve(static_cast<unsigned>(std::atoi(argv[2])),
                     static_cast<std::uint64_t>(std::atoll(argv[3])),
                     std::atof(argv[4]));
  }
  if (cmd == "admit" && argc == 3) return cmd_admit(argv[2]);
  if (cmd == "area" && argc == 3) {
    return cmd_area(static_cast<unsigned>(std::atoi(argv[2])));
  }
  if (cmd == "trace") return cmd_trace();
  if (cmd == "run" && argc >= 4) return cmd_run(argc, argv);
  if (cmd == "report" && argc == 3) return cmd_report(argv[2]);
  usage();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A setting the program refuses (a bad SS_SIMD value, say) stops it the
  // way a bad flag does: a message on stderr and exit 2.
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ss_cli: " << e.what() << "\n";
    return 2;
  }
}
