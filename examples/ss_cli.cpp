// ss_cli — a command-line front end over the public API.
//
//   ss_cli solve <streams> <frame_bytes> <gbps>   Figure-1 framework query
//   ss_cli admit <spec-file|->                    parse + admission verdict
//   ss_cli area  <slots>                          Virtex-I/II area & clock
//   ss_cli trace                                  a traced 8-cycle DWCS run
//   ss_cli run <streams> <frames> [--metrics-json F] [--trace-out F]
//              [--audit-out F] [--profile-out F] [--sample-every N]
//                                                 instrumented pipeline run
//   ss_cli audit <streams> <frames> [--out F] [--fault-seed S]
//                [--sample-every N] [--watchdog]  black-box / provenance dump
//
// Run without arguments for a demonstration of the subcommands.
#include <cstdio>
#include <cstring>
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
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"
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

/// `run`: the full endsystem pipeline with live telemetry — equal-weight
/// fair-share flows, per-layer metrics to a single-line JSON snapshot and
/// frame-lifecycle events to a Perfetto-loadable Chrome trace.
int cmd_run(unsigned streams, std::uint64_t frames,
            const std::string& metrics_path, const std::string& trace_path,
            const std::string& audit_path, const std::string& profile_path,
            const std::string& timeseries_path, unsigned sample_every) {
  using namespace ss;
  if (streams < 2 || streams > 32 || (streams & (streams - 1)) != 0) {
    std::fprintf(stderr, "run: streams must be a power of two in 2..32\n");
    return 1;
  }

  telemetry::MetricsRegistry registry;
  telemetry::FrameTrace frame_trace;
  telemetry::Profiler profiler;
  telemetry::AuditSession audit(streams);
  audit.set_dump_path(audit_path);
  audit.set_sampling(sample_every);
  core::EndsystemConfig cfg;
  cfg.chip.slots = streams;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.keep_series = false;
  cfg.delay_histogram = true;  // streaming percentiles, O(1) memory
  cfg.metrics = &registry;
  cfg.frame_trace = &frame_trace;
  if (!audit_path.empty()) cfg.audit = &audit;
  if (!profile_path.empty()) cfg.profiler = &profiler;
  core::Endsystem es(cfg);

  const double ptime_ns = packet_time_ns(1500, cfg.link_gbps);
  for (unsigned i = 0; i < streams; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = 1.0;
    es.add_stream(r,
                  std::make_unique<queueing::CbrGen>(static_cast<std::uint64_t>(
                      ptime_ns * static_cast<double>(streams))),
                  1500);
  }
  telemetry::TimeSeries timeseries(registry);
  if (!timeseries_path.empty()) timeseries.start();
  const auto rep = es.run(frames);
  if (!timeseries_path.empty()) timeseries.stop();  // closing-window sample

  std::printf("run: %u streams x %llu frames -> %llu transmitted in %llu "
              "decision cycles (%.3e pps excl PCI)\n",
              streams, static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(rep.frames),
              static_cast<unsigned long long>(rep.decision_cycles),
              rep.pps_excl_pci);
  std::printf("stream 0: p50=%.1f us p99=%.1f us (streaming estimate)\n",
              es.monitor().delay_percentile_est_us(0, 50.0),
              es.monitor().delay_percentile_est_us(0, 99.0));
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (!f) {
      std::fprintf(stderr, "run: cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    f << registry.to_json() << '\n';
    std::printf("metrics snapshot (%zu metrics) -> %s\n", registry.size(),
                metrics_path.c_str());
  } else {
    std::printf("%s\n", registry.to_json().c_str());
  }
  if (!trace_path.empty()) {
    if (!frame_trace.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "run: cannot open %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("frame-lifecycle trace (%llu events) -> %s\n",
                static_cast<unsigned long long>(frame_trace.recorded()),
                trace_path.c_str());
  }
  if (!profile_path.empty()) {
    if (!profiler.write_json(profile_path)) {
      std::fprintf(stderr, "run: cannot open %s\n", profile_path.c_str());
      return 1;
    }
    std::printf("stage profile (ss-profile-v1, %s clock) -> %s\n",
                telemetry::Profiler::clock_name(), profile_path.c_str());
  }
  if (!timeseries_path.empty()) {
    if (!timeseries.write_json(timeseries_path)) {
      std::fprintf(stderr, "run: cannot open %s\n", timeseries_path.c_str());
      return 1;
    }
    std::printf("time series (ss-timeseries-v1, %zu intervals) -> %s\n",
                timeseries.size(), timeseries_path.c_str());
  }
  if (!audit_path.empty()) {
    if (!audit.dumped()) audit.dump("on_demand");
    std::printf("audit dump (%llu comparisons, 1-in-%u sampled, ring of "
                "%zu) -> %s\n",
                static_cast<unsigned long long>(audit.audit().comparisons()),
                audit.sampler().every(), audit.recorder().size(),
                audit_path.c_str());
  }
  return 0;
}

/// `audit`: the black box on demand — run the pipeline with a decision-
/// audit session attached (optionally under a seeded fault plane, with the
/// anomaly watchdog watching the registry) and emit the single-line
/// ss-audit-v2 document to stdout or a file.
int cmd_audit(unsigned streams, std::uint64_t frames,
              const std::string& out_path, std::uint64_t fault_seed,
              unsigned sample_every, bool watchdog_on, bool overload) {
  using namespace ss;
  if (streams < 2 || streams > 32 || (streams & (streams - 1)) != 0) {
    std::fprintf(stderr, "audit: streams must be a power of two in 2..32\n");
    return 1;
  }
  telemetry::MetricsRegistry registry;
  telemetry::AuditSession audit(streams);
  audit.set_dump_path(out_path);
  audit.set_sampling(sample_every);
  core::EndsystemConfig cfg;
  cfg.chip.slots = streams;
  cfg.chip.cmp_mode = hw::ComparisonMode::kDwcsFull;
  cfg.keep_series = false;
  cfg.audit = &audit;
  // The watchdog reads rolling metric windows, so it drags the registry in.
  if (watchdog_on) cfg.metrics = &registry;
  if (fault_seed != 0) {
    cfg.faults.seed = fault_seed;
    cfg.faults.pci_fault_per64k = 700;
    cfg.faults.sram_fault_per64k = 700;
    cfg.faults.chip_fault_per64k = 700;
  }
  core::Endsystem es(cfg);
  const double ptime_ns = packet_time_ns(1500, cfg.link_gbps);
  for (unsigned i = 0; i < streams; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kWindowConstrained;
    // --overload: every stream demands twice its fair share, so window
    // violations (and their burn attribution) are guaranteed — the
    // deterministic way to trip the watchdog's burn_rate_spike rule.
    r.period = overload ? streams / 2 : streams;
    r.loss_num = 1;
    r.loss_den = 4;
    r.initial_deadline = i + 1;
    const double interval =
        ptime_ns * static_cast<double>(overload ? streams / 2 : streams);
    es.add_stream(
        r, std::make_unique<queueing::CbrGen>(
               static_cast<std::uint64_t>(interval)),
        1500);
  }
  telemetry::Watchdog watchdog(registry, &audit);
  if (watchdog_on) watchdog.start();
  const auto rep = es.run(frames);
  if (watchdog_on) watchdog.stop();  // final rule evaluation before join
  std::printf("audit: %u streams x %llu frames, %llu decisions, "
              "%llu comparisons, %llu faults%s\n",
              streams, static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(rep.decision_cycles),
              static_cast<unsigned long long>(audit.audit().comparisons()),
              static_cast<unsigned long long>(audit.faults_total()),
              rep.failed_over ? " (FAILED OVER)" : "");
  if (watchdog_on) {
    std::printf("watchdog: %llu polls, %llu firings%s%s\n",
                static_cast<unsigned long long>(watchdog.polls()),
                static_cast<unsigned long long>(watchdog.fired()),
                watchdog.fired() > 0 ? ", last rule " : "",
                watchdog.fired() > 0 ? watchdog.last_rule().c_str() : "");
  }
  if (out_path.empty()) {
    std::printf("%s\n", audit.to_json("on_demand").c_str());
  } else {
    if (!audit.dumped()) audit.dump("on_demand");
    std::printf("ss-audit-v2 (cause \"%s\") -> %s\n",
                audit.last_cause().c_str(), out_path.c_str());
  }
  return 0;
}

/// `report`: merge a run's export documents into one ss-report-v1 page.
int cmd_report(const ss::telemetry::ReportInputs& in,
               const std::string& json_out) {
  const ss::telemetry::Report rep = ss::telemetry::build_report(in);
  if (!rep.any_input) {
    std::fprintf(stderr,
                 "report: no readable input documents (check paths and "
                 "schemas)\n");
    return 2;
  }
  if (!json_out.empty()) {
    std::ofstream f(json_out);
    if (!f) {
      std::fprintf(stderr, "report: cannot open %s\n", json_out.c_str());
      return 1;
    }
    f << rep.json << '\n';
    std::printf("%s", rep.text.c_str());
    std::printf("\nss-report-v1 -> %s\n", json_out.c_str());
  } else {
    std::printf("%s", rep.text.c_str());
  }
  return 0;
}

void usage() {
  std::puts("usage: ss_cli solve <streams> <frame_bytes> <gbps>");
  std::puts("       ss_cli admit <spec-file|->");
  std::puts("       ss_cli area <slots>");
  std::puts("       ss_cli trace");
  std::puts("       ss_cli run <streams> <frames> [--metrics-json FILE]");
  std::puts("                  [--trace-out FILE] [--audit-out FILE]");
  std::puts("                  [--profile-out FILE] [--timeseries-out FILE]");
  std::puts("                  [--sample-every N]");
  std::puts("       ss_cli audit <streams> <frames> [--out FILE]");
  std::puts("                  [--fault-seed S] [--sample-every N]");
  std::puts("                  [--watchdog] [--overload]");
  std::puts("       ss_cli report [--metrics FILE] [--audit FILE]");
  std::puts("                  [--profile FILE] [--timeseries FILE]");
  std::puts("                  [--json-out FILE]");
}

}  // namespace

int main(int argc, char** argv) {
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
  if (cmd == "run" && argc >= 4) {
    std::string metrics_path, trace_path, audit_path, profile_path;
    std::string timeseries_path;
    unsigned sample_every = 64;
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--metrics-json" && i + 1 < argc) {
        metrics_path = argv[++i];
      } else if (a == "--trace-out" && i + 1 < argc) {
        trace_path = argv[++i];
      } else if (a == "--audit-out" && i + 1 < argc) {
        audit_path = argv[++i];
      } else if (a == "--profile-out" && i + 1 < argc) {
        profile_path = argv[++i];
      } else if (a == "--timeseries-out" && i + 1 < argc) {
        timeseries_path = argv[++i];
      } else if (a == "--sample-every" && i + 1 < argc) {
        sample_every = static_cast<unsigned>(std::atoi(argv[++i]));
      } else {
        usage();
        return 1;
      }
    }
    return cmd_run(static_cast<unsigned>(std::atoi(argv[2])),
                   static_cast<std::uint64_t>(std::atoll(argv[3])),
                   metrics_path, trace_path, audit_path, profile_path,
                   timeseries_path, sample_every);
  }
  if (cmd == "report") {
    ss::telemetry::ReportInputs in;
    std::string json_out;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--metrics" && i + 1 < argc) {
        in.metrics_path = argv[++i];
      } else if (a == "--audit" && i + 1 < argc) {
        in.audit_path = argv[++i];
      } else if (a == "--profile" && i + 1 < argc) {
        in.profile_path = argv[++i];
      } else if (a == "--timeseries" && i + 1 < argc) {
        in.timeseries_path = argv[++i];
      } else if (a == "--json-out" && i + 1 < argc) {
        json_out = argv[++i];
      } else {
        usage();
        return 1;
      }
    }
    return cmd_report(in, json_out);
  }
  if (cmd == "audit" && argc >= 4) {
    std::string out_path;
    std::uint64_t fault_seed = 0;
    unsigned sample_every = 64;
    bool watchdog_on = false;
    bool overload = false;
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (a == "--fault-seed" && i + 1 < argc) {
        fault_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      } else if (a == "--sample-every" && i + 1 < argc) {
        sample_every = static_cast<unsigned>(std::atoi(argv[++i]));
      } else if (a == "--watchdog") {
        watchdog_on = true;
      } else if (a == "--overload") {
        overload = true;
      } else {
        usage();
        return 1;
      }
    }
    return cmd_audit(static_cast<unsigned>(std::atoi(argv[2])),
                     static_cast<std::uint64_t>(std::atoll(argv[3])),
                     out_path, fault_seed, sample_every, watchdog_on,
                     overload);
  }
  usage();
  return 1;
}
