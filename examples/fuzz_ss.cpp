// fuzz_ss.cpp — differential fuzzing + deterministic replay CLI.
//
// The command-line face of src/testing: generates randomized scenarios
// over the configuration lattice, runs every scheduler implementation in
// lock-step, and on divergence shrinks the event stream to a minimal
// reproducer and serializes it so the failure is a one-command repro.
//
//   fuzz_ss --seed 7 --scenarios 50 --events 1000     # a fuzz campaign
//   fuzz_ss --seed 7 --seconds 30                     # time-budgeted smoke
//   fuzz_ss --seed 7 --capture run.sst                # byte-deterministic
//                                                       trace capture
//   fuzz_ss --replay fuzz_failure.sst                 # deterministic repro
//   fuzz_ss --seed 7 --inject-fault 3                 # self-test: corrupt
//                                                       the oracle's 3rd
//                                                       grant, shrink it
//   fuzz_ss --seed 7 --explore-batch                  # also sample the
//                                                       block batch_depth axis
//   fuzz_ss --seed 7 --explore-rank                   # also sample the
//                                                       rank-layer axis
//                                                       (discipline x PIFO
//                                                       substrate)
//   fuzz_ss --seed 7 --fault-seed 42                  # every scenario runs
//                                                       under a seeded
//                                                       hardware fault plane
//   fuzz_ss --seed 7 --out run.json                   # run document:
//                                                       metrics, audit
//                                                       (flight recorder +
//                                                       rule provenance),
//                                                       time series
//
// Exit status: 0 = no divergence (or replay reproduced nothing), 1 = a
// divergence was found (minimized reproducer written), 2 = usage/IO
// error, 3 = replay ran clean but its digest differs from the capture's
// expect_digest (semantics drifted since the trace was recorded).  CI
// scripts rely on 2-vs-3 to tell "bad file" from "stale file".
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "telemetry/observability.hpp"
#include "testing/differential_executor.hpp"
#include "testing/rank_equivalence.hpp"
#include "testing/shrinker.hpp"
#include "testing/trace_io.hpp"
#include "testing/workload_fuzzer.hpp"

namespace {

using namespace ss::testing;

struct Args {
  std::uint64_t seed = 1;
  std::uint64_t scenarios = 20;
  std::size_t events = 1000;
  double seconds = 0;  // 0 = no time budget (scenario count governs)
  std::uint64_t inject_fault = 0;
  std::uint64_t fault_seed = 0;  // non-zero: every scenario gets a fault plane
  bool explore_batch = false;
  bool explore_rank = false;
  std::string capture;     // trace capture path (fuzz mode)
  std::string replay;      // replay path; empty = fuzz mode
  std::string chip_trace;  // --trace-out: the chip's Chrome trace-event JSON
  // The run document (--out: metrics, audit and time series).  The fuzzer
  // keeps full audit by default (sample_every 1) — it is a correctness
  // tool, not a production loop — but --sample-every lets campaigns
  // measure the sampled configuration.
  ss::telemetry::ObservabilityOptions obs;
};

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "fuzz_ss: cannot open " << path << '\n';
    return false;
  }
  f << body;
  return static_cast<bool>(f);
}

DifferentialExecutor::Options exec_options(const Args& args,
                                           ss::telemetry::Observability& obs) {
  DifferentialExecutor::Options opt;
  // Divergence reports always carry a metrics snapshot and the
  // time-series tail, so the registry rides along without --out.
  opt.metrics = &obs.registry();
  opt.audit = obs.audit();
  if (!args.chip_trace.empty()) {
    opt.export_chrome_trace = true;
    opt.trace_depth = 4096;  // a Perfetto-sized window, not just the tail
  }
  return opt;
}

/// Write the run document and the chip trace; false on any I/O error.
bool write_exports(const Args& args, ss::telemetry::Observability& obs,
                   const std::string& chrome_trace) {
  bool ok = obs.finish("fuzz_ss");
  if (!args.chip_trace.empty()) {
    ok = write_text_file(args.chip_trace, chrome_trace) && ok;
  }
  return ok;
}

void print_divergence_context(const RunResult& r,
                              const ss::telemetry::TimeSeries& ts) {
  if (!r.chip_trace_tail.empty()) {
    std::cout << "  chip trace (last decision cycles before divergence):\n"
              << r.chip_trace_tail;
  }
  if (!r.metrics_json.empty()) {
    std::cout << "  metrics: " << r.metrics_json << '\n';
  }
  if (ts.size() > 0) {
    // One interval per scenario (manually sampled): the rate context
    // around the diverging scenario, not just end-of-campaign totals.
    std::cout << "  time-series tail (one interval per scenario):\n"
              << ts.tail_text(8);
  }
}

const char* discipline_str(Discipline d) {
  switch (d) {
    case Discipline::kDwcs: return "dwcs";
    case Discipline::kEdf: return "edf";
    case Discipline::kStaticPrio: return "static";
    case Discipline::kFairTag: return "fairtag";
  }
  return "?";
}

void print_point(const Scenario& sc) {
  std::cout << "N=" << sc.fabric.slots << ' ' << discipline_str(sc.fabric.discipline)
            << (sc.fabric.block_mode ? (sc.fabric.min_first ? " block-min" : " block-max")
                                     : " wr")
            << (sc.aggregation.empty() ? "" : " +agg") << " events="
            << sc.events.size();
  if (sc.fabric.batch_depth > 0) {
    std::cout << " batch=" << sc.fabric.batch_depth;
  }
  if (sc.rank.enabled) {
    std::cout << " rank=" << rank_disc_name(sc.rank.disc) << '@'
              << rank_backend_name(sc.rank.backend);
    if (sc.rank.backend == RankBackend::kSpPifo) {
      std::cout << '/' << unsigned{sc.rank.bands} << 'q';
    }
  }
}

int usage() {
  std::cerr <<
      "usage: fuzz_ss [--seed S] [--scenarios K] [--events N] [--seconds T]\n"
      "               [--capture FILE] [--inject-fault G] [--fault-seed S]\n"
      "               [--explore-batch] [--explore-rank]\n"
            << ss::telemetry::ObservabilityOptions::usage(15) <<
      "       fuzz_ss --replay FILE [the observability flags above]\n"
      "--trace-out writes the chip's decision-cycle trace; --watchdog needs\n"
      "a live pipeline (ss_cli run) and exits 2 here.\n";
  return 2;
}

int replay_mode(const Args& args) {
  TraceFile tf;
  try {
    tf = load_file(args.replay);
  } catch (const std::exception& e) {
    std::cerr << "fuzz_ss: " << e.what() << '\n';
    return 2;
  }
  // The audit session is sized for the widest fabric; the executor clears
  // its per-cycle context per run (begin_run).
  ss::telemetry::Observability obs(args.obs, ss::telemetry::kAuditMaxStreams,
                                   /*profiled=*/false);
  const DifferentialExecutor ex(exec_options(args, obs));
  const RunResult r = ex.run(tf.scenario);
  obs.timeseries().sample_once();  // one interval: the whole replay
  std::cout << "replay ";
  print_point(tf.scenario);
  std::cout << "\n  decisions=" << r.decisions << " grants=" << r.grants
            << " drops=" << r.drops << " digest=" << r.digest << '\n';
  const bool stale = tf.expected_digest && *tf.expected_digest != r.digest;
  if (stale) {
    std::cout << "  STALE: digest differs from capture ("
              << *tf.expected_digest << ") — semantics changed since\n";
  }
  if (!write_exports(args, obs, r.chip_trace_chrome_json)) return 2;
  if (r.diverged) {
    std::cout << "  DIVERGENCE at event " << r.event_index << " (decision "
              << r.decision_cycle << "): " << r.detail << '\n';
    print_divergence_context(r, obs.timeseries());
    return 1;
  }
  std::cout << "  no divergence\n";
  return stale ? 3 : 0;
}

int fuzz_mode(const Args& args) {
  WorkloadFuzzer::Options fo;
  fo.seed = args.seed;
  fo.events_per_scenario = args.events;
  fo.explore_batch = args.explore_batch;
  fo.explore_rank = args.explore_rank;
  if (args.fault_seed != 0) {
    // Fault campaign: every scenario carries a seeded hardware fault
    // plane.  The schedule must still match the fault-free oracle, so a
    // plain "no divergence" exit proves the recovery path is transparent.
    fo.fault_probability = 1.0;
    fo.fault_seed = args.fault_seed;
  }
  WorkloadFuzzer fuzzer(fo);
  // One audit session spans the whole campaign: the rule profile
  // accumulates across scenarios while the flight recorder keeps the last
  // decisions, so a late divergence still dumps a populated black box.
  // The time series is sampled by hand, one interval per scenario: the
  // campaign's rate history with scenario granularity, and on divergence
  // the tail shows which scenarios around the failure were doing what.
  ss::telemetry::Observability obs(args.obs, ss::telemetry::kAuditMaxStreams,
                                   /*profiled=*/false);
  const DifferentialExecutor ex(exec_options(args, obs));

  std::ofstream trace;
  if (!args.capture.empty()) {
    trace.open(args.capture, std::ios::binary);
    if (!trace) {
      std::cerr << "fuzz_ss: cannot open " << args.capture << '\n';
      return 2;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  std::uint64_t total_decisions = 0, total_grants = 0;
  std::uint64_t total_faults = 0, total_recoveries = 0, total_failovers = 0;
  std::string last_chrome_trace;
  for (std::uint64_t k = 0;; ++k) {
    if (args.seconds > 0) {
      if (elapsed() >= args.seconds) break;
    } else if (k >= args.scenarios) {
      break;
    }

    Scenario sc = fuzzer.next();
    sc.inject_fault_at_grant = args.inject_fault;
    const RunResult r = ex.run(sc);
    obs.timeseries().sample_once();  // one interval per scenario
    total_decisions += r.decisions;
    total_grants += r.grants;
    total_faults += r.faults_injected;
    total_recoveries += r.robust.recoveries;
    total_failovers += r.failed_over ? 1 : 0;
    if (!r.chip_trace_chrome_json.empty()) {
      last_chrome_trace = r.chip_trace_chrome_json;
    }

    std::cout << "scenario " << k << ": ";
    print_point(sc);
    std::cout << " decisions=" << r.decisions << " digest=" << r.digest
              << (r.hwpq_checked ? " hwpq" : "");
    if (r.rank_checked) {
      std::cout << " rank_served=" << r.rank_served;
      if (sc.rank.backend == RankBackend::kSpPifo) {
        std::cout << " rank_inv=" << r.rank_inversions;
      }
    }
    if (sc.faults.enabled()) {
      std::cout << " faults=" << r.faults_injected
                << (r.failed_over ? " FAILOVER" : "");
    }
    std::cout << '\n';
    if (trace.is_open()) {
      trace << serialize(sc, r.diverged ? std::optional<std::uint64_t>{}
                                        : std::optional{r.digest});
    }

    if (r.diverged) {
      std::cout << "DIVERGENCE at event " << r.event_index << " (decision "
                << r.decision_cycle << "): " << r.detail << '\n';
      print_divergence_context(r, obs.timeseries());
      std::cout << "shrinking...\n";
      // The shrinker's candidate runs stay off the campaign's registry
      // and audit session, so the run document keeps the counters and the
      // black box of the scenario that diverged.
      const ShrinkResult s = shrink(sc, DifferentialExecutor{});
      const std::string repro = "fuzz_failure_seed" +
                                std::to_string(args.seed) + "_scenario" +
                                std::to_string(k) + ".sst";
      save_file(repro, s.minimal, s.divergence.digest);
      std::cout << "minimized " << s.initial_events << " -> "
                << s.final_events << " events in " << s.executor_runs
                << " executor runs\n"
                << "reproducer written to " << repro << "\n"
                << "replay with: fuzz_ss --replay " << repro << '\n';
      write_exports(args, obs, last_chrome_trace);
      return 1;
    }
  }

  if (!write_exports(args, obs, last_chrome_trace)) return 2;
  std::cout << "ok: " << fuzzer.scenarios_generated() << " scenarios, "
            << total_decisions << " differential decisions, " << total_grants
            << " grants, " << elapsed() << " s, no divergence\n";
  if (args.fault_seed != 0) {
    std::cout << "fault plane: " << total_faults << " faults injected, "
              << total_recoveries << " recoveries, " << total_failovers
              << " failovers — schedule stayed oracle-equivalent\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.obs.sample_every = 1;
  for (int i = 1; i < argc; ++i) {
    switch (args.obs.take(argc, argv, i, "fuzz_ss")) {
      case ss::telemetry::ObservabilityOptions::Flag::kTaken: continue;
      case ss::telemetry::ObservabilityOptions::Flag::kBad: return usage();
      case ss::telemetry::ObservabilityOptions::Flag::kOther: break;
    }
    const std::string a = argv[i];
    auto value = [&](std::uint64_t& dst) {
      return i + 1 < argc && ss::telemetry::parse_count(argv[++i], dst);
    };
    if (a == "--seed") {
      if (!value(args.seed)) return usage();
    } else if (a == "--scenarios") {
      if (!value(args.scenarios)) return usage();
    } else if (a == "--events") {
      std::uint64_t v = 0;
      if (!value(v)) return usage();
      args.events = static_cast<std::size_t>(v);
    } else if (a == "--seconds") {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      args.seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0') return usage();
    } else if (a == "--inject-fault" || a == "--fault-seed") {
      // 0 means "off" for both, so asking for it would silently fuzz
      // without the fault: refuse it.
      std::uint64_t& dst =
          a == "--fault-seed" ? args.fault_seed : args.inject_fault;
      if (!value(dst) || dst == 0) return usage();
    } else if (a == "--explore-batch") {
      args.explore_batch = true;
    } else if (a == "--explore-rank") {
      args.explore_rank = true;
    } else if (a == "--capture") {
      if (i + 1 >= argc) return usage();
      args.capture = argv[++i];
    } else if (a == "--replay") {
      if (i + 1 >= argc) return usage();
      args.replay = argv[++i];
    } else {
      return usage();
    }
  }
  // The executor drives the chip, not the endsystem pipeline: it has no
  // live run for a watchdog to poll.
  if (args.obs.watchdog) return usage();
  // --trace-out is the executor's chip trace, not a frame-lifecycle trace.
  args.chip_trace = std::exchange(args.obs.trace_out, {});
  // A setting the program refuses (a bad SS_SIMD value, say) stops it the
  // way a bad flag does: a message on stderr and exit 2.
  try {
    return args.replay.empty() ? fuzz_mode(args) : replay_mode(args);
  } catch (const std::exception& e) {
    std::cerr << "fuzz_ss: " << e.what() << "\n";
    return 2;
  }
}
