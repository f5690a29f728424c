// driver.cpp — the benchmark of record for the ShareStreams host pipeline.
//
//   perfbench_driver --workload NAME --seed N --seconds T --trace 0|1
//
// --trace 0 times untraced reps of core::Endsystem / core::ThreadedEndsystem
// (all telemetry detached) for T seconds and reports the end-to-end
// metrics over the reps.  --trace 1 alternates untraced reps
// with reps of the benchmark-side traced driver (traced.hpp) and reports
// the per-layer metrics plus the tracing overhead.
//
// Every run first makes one discarded warm-up rep, then checks its output:
// frame conservation, the traced-vs-untraced equivalence gate with a
// lockstep software oracle, a negative self-test of both checks, and a
// schedule digest that must repeat on every rep.  The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/endsystem.hpp"
#include "core/threaded_endsystem.hpp"
#include "hw/simd_kernel.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile q in [0, 1] with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Frames/s of record: the 90th percentile of the per-rep rates.  On a
// shared host, co-tenant load slows whole stretches of reps by up to 2x
// and never speeds one up, so when that load comes and goes within a run
// the upper decile tracks what the pipeline sustains more steadily than
// the median does.
constexpr double kPpsQuantile = 0.9;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The metrics of record: the measured end-to-end metrics, and the
// per-layer metrics the traced driver produces with a non-zero value on
// every workload of record.  The modeled outcomes (PCI ns, Virtex cycles, link
// delays, QoS counters) are deterministic per seed, and the rest are
// workload-specific; they are printed in the table above the JSON line.
const std::vector<std::string> kEndToEnd = {"pps", "setup_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "hw.chip.decide_ns_p50",
    "hw.chip.decide_ns_p99",
    "hw.chip.comparisons_per_decision",
    "hw.chip.push_ns_mean",
    "hw.chip.decisions_per_frame",
    "hw.chip.busy_share",
    "hw.pci.model_write_ns_per_frame",
    "hw.pci.model_read_ns_per_frame",
    "hw.pci.transfers_per_frame",
    "queueing.te.transmit_ns_per_frame",
    "queueing.te.burst_ns_p50",
    "queueing.te.burst_ns_p99",
    "queueing.te.frames_per_burst",
    "queueing.qm.produce_ns_mean",
    "queueing.qm.add_stream_s",
    "queueing.gen.generate_s",
    "core.monitor.record_ns_per_frame",
    "core.loop.self_ns_per_frame",
    "dwcs.admission_s",
    "trace.overhead_pct",
};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::size_t k = std::strlen(suffix);
    return name.size() >= k && name.compare(name.size() - k, k, suffix) == 0;
  };
  if (name == "pps" || name == "pps_median") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (ends("_pct")) return "%";
  if (ends("_s")) return "s";
  if (ends("_us")) return "us";
  if (ends("_ns_per_frame")) return "ns/frame";
  if (ends("cycles_per_frame")) return "cycles/frame";
  if (ends("_per_kframe")) return "1/kframe";
  if (ends("_per_frame")) return "1/frame";
  if (ends("_per_decision")) return "1/decision";
  if (ends("_per_burst")) return "frames/burst";
  if (name.find("_ns_") != std::string::npos) return "ns";
  return "ratio";
}

struct Rep {
  double pps = 0.0;
  double setup_s = 0.0;
  Outcome out;
};

Rep run_endsystem(const Workload& w) {
  Rep r;
  const auto t0 = Clock::now();
  ss::core::Endsystem es(w.cfg);
  const ss::core::AdmissionReport adm =
      ss::core::AdmissionController::analyze(w.requirements());
  if (!adm.admitted) throw std::runtime_error("admission rejected " + w.name);
  std::vector<std::uint64_t> counts;
  for (const StreamPlan& p : w.streams) {
    es.add_stream(p.req, make_gen(p), w.frame_bytes);
    counts.push_back(p.frames);
  }
  const double before_run = since(t0);
  const auto t1 = Clock::now();
  const ss::core::EndsystemReport rep = es.run(counts);
  r.setup_s = before_run + (since(t1) - rep.host_seconds);
  r.pps = rep.pps_excl_pci;

  Outcome& o = r.out;
  o.offered = w.total_frames();
  o.completed = rep.frames;
  o.dropped_late = rep.dropped_late;
  o.spurious = rep.spurious_schedules;
  o.decisions = rep.decision_cycles;
  o.committed = rep.committed_decisions;
  o.hw_cycles = es.chip().hw_cycles();
  o.comparisons = es.chip().network_comparisons();
  o.pci_ns = rep.pci_ns;
  const auto n = static_cast<std::uint32_t>(w.streams.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    o.delay_p50_us =
        std::max(o.delay_p50_us, es.monitor().delay_percentile_est_us(i, 50.0));
    o.delay_p99_us =
        std::max(o.delay_p99_us, es.monitor().delay_percentile_est_us(i, 99.0));
    o.stream_frames.push_back(es.monitor().frames(i));
    o.counters.push_back(
        es.chip().slot(static_cast<ss::hw::SlotId>(i)).counters());
  }
  return r;
}

Rep run_threaded(const Workload& w) {
  Rep r;
  const auto t0 = Clock::now();
  ss::core::ThreadedEndsystem es(w.tcfg);
  for (const StreamPlan& p : w.streams) es.add_stream(p.req);
  const double before_run = since(t0);
  const auto t1 = Clock::now();
  const ss::core::ThreadedReport rep = es.run(w.streams.at(0).frames);
  r.setup_s = before_run + (since(t1) - rep.wall_seconds);
  r.pps = rep.pps;
  // Producer and scheduler interleave nondeterministically, so a threaded
  // outcome keeps only what must be exact: per-stream frame counts.
  r.out.offered = w.total_frames();
  r.out.completed = rep.frames_transmitted;
  r.out.stream_frames = rep.per_stream_tx;
  return r;
}

Rep run_untraced(const Workload& w) {
  return w.threaded ? run_threaded(w) : run_endsystem(w);
}

TracedResult run_traced_any(const Workload& w, bool oracle) {
  return w.threaded ? run_traced_threaded(w) : run_traced(w, oracle);
}

/// Bookkeeping shared by every check in a run.
struct Checks {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  void fail(const std::string& why) {
    ok = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  /// Conservation on one rep: every offered frame completed, no grant
  /// found an empty ring, and per-stream counts add up.
  void conservation(const Workload& w, const Outcome& o, const char* what) {
    attempted += o.offered;
    const std::uint64_t lost = o.offered > o.completed ? o.offered - o.completed : 0;
    failed += lost + o.spurious;
    std::uint64_t sum = o.dropped_late;
    for (const std::uint64_t f : o.stream_frames) sum += f;
    if (lost != 0 || o.spurious != 0 || sum != o.offered) {
      fail(std::string(what) + ": frames not conserved (offered " +
           std::to_string(o.offered) + ", completed " +
           std::to_string(o.completed) + ", spurious " +
           std::to_string(o.spurious) + ")");
    }
    if (w.threaded) {
      for (std::size_t i = 0; i < o.stream_frames.size(); ++i) {
        if (o.stream_frames[i] != w.streams[i].frames) {
          fail(std::string(what) + ": stream " + std::to_string(i) +
               " transmitted != produced");
          break;
        }
      }
    }
  }

  void same_digest(const Outcome& o, const char* what) {
    if (o.digest() != digest) {
      fail(std::string(what) + ": schedule digest changed between reps");
    }
  }
};

/// The gate must reject a perturbed outcome and a perturbed decision.
bool gate_self_test(const Outcome& base) {
  std::vector<Outcome> bad(9, base);
  bad[0].offered += 1;
  bad[1].completed += 1;
  bad[2].decisions += 1;
  bad[3].committed += 1;
  bad[4].hw_cycles += 1;
  bad[5].comparisons += 1;
  bad[6].pci_ns += 1;
  bad[7].delay_p99_us = std::nextafter(base.delay_p99_us, 1e300);
  if (!bad[8].stream_frames.empty()) bad[8].stream_frames[0] += 1;
  if (!base.counters.empty()) {
    bad.push_back(base);
    bad.back().counters[0].violations += 1;
    bad.push_back(base);
    bad.back().counters[0].missed_deadlines += 1;
  }
  for (const Outcome& b : bad) {
    if (outcome_diff(base, b).empty() || b.digest() == base.digest()) {
      return false;
    }
  }
  OracleDecision d;
  d.grants = {3, 1, 2};
  OracleDecision swapped = d;
  std::swap(swapped.grants[0], swapped.grants[1]);
  OracleDecision dropped = d;
  dropped.drops = {5};
  OracleDecision idle = d;
  idle.idle = true;
  return compare_decision(d, d).empty() &&
         !compare_decision(d, swapped).empty() &&
         !compare_decision(d, dropped).empty() &&
         !compare_decision(d, idle).empty();
}

/// threaded16 runs producer and scheduler on two separate CPUs: the two
/// highest-numbered CPUs this process may use.  Returns them ("" = the
/// process could not be pinned and runs on whatever it was given).
std::string pin_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus.size() < 2; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return "";
  cpu_set_t pin;
  CPU_ZERO(&pin);
  for (const int c : cpus) CPU_SET(c, &pin);
  if (sched_setaffinity(0, sizeof(pin), &pin) != 0) return "";
  return std::to_string(cpus[1]) + "," + std::to_string(cpus[0]);
}

void print_metric(const std::string& name, double v) {
  std::printf("  %-36s %16.6g %s\n", name.c_str(), v, unit_of(name).c_str());
}

void print_json(const Checks& c, const std::vector<std::string>& keys,
                const LayerMetrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              c.ok ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed));
  bool first = true;
  for (const std::string& k : keys) {
    const auto it = values.find(k);
    if (it == values.end()) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", k.c_str(), it->second, unit_of(k).c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "--seconds T --trace 0|1\nworkloads:");
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || name.empty() || seconds <= 0 || trace < 0 || trace > 1 ||
      std::find(workload_names().begin(), workload_names().end(), name) ==
          workload_names().end()) {
    return usage();
  }

  // Whether the kernel can back the 3 MB rings with transparent huge pages
  // depends on how fragmented the whole machine's memory is at that
  // moment.  Base pages only keep page size, and with it fault and TLB
  // cost, the same in every run.
  const bool thp_off = prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0;
  // glibc raises its mmap and trim thresholds the first time a large
  // block is freed, so after the first rep the rings came from already
  // mapped heap or not depending on where the driver's own vectors landed,
  // and set-up time moved 3.5x between runs.  Pinning the thresholds at
  // their start-up values makes every rep allocate like the first rep of
  // a fresh process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  const Workload w = make_workload(name, seed);
  const std::string pinned = w.threaded ? pin_two_cpus() : "";
  std::printf("env: nproc=%ld pinned_cpus=%s build_type=%s simd_kernel=%s "
              "thp=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              w.threaded ? (pinned.empty() ? "none" : pinned.c_str()) : "-",
              PERFBENCH_BUILD_TYPE,
              ss::hw::simd::kernel_name(ss::hw::simd::default_kernel()),
              thp_off ? "off" : "system-default");
  std::printf("workload: %s seed=%llu streams=%zu frames/rep=%llu\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              w.streams.size(),
              static_cast<unsigned long long>(w.total_frames()));

  Checks checks;
  // Warm-up rep: discarded from the timings; its outcome is the reference
  // every later rep and the traced driver must reproduce.
  const Rep warm = run_untraced(w);
  const double rss_mb = peak_rss_mb();  // a process that ran only this workload
  checks.conservation(w, warm.out, "warm-up rep");
  checks.digest = warm.out.digest();
  if (!gate_self_test(warm.out)) {
    checks.fail("gate self-test: a perturbed outcome or decision passed");
  }

  // Equivalence gate: the traced driver, with the lockstep oracle, must
  // reproduce the untraced outcome exactly.
  const TracedResult gate = run_traced_any(w, /*oracle=*/true);
  checks.conservation(w, gate.out, "traced gate rep");
  if (!gate.oracle_error.empty()) {
    checks.fail("oracle lockstep: " + gate.oracle_error);
  }
  if (!w.threaded) {
    std::printf("oracle: lockstep agreed on %llu decisions",
                static_cast<unsigned long long>(gate.oracle_checked));
    if (gate.oracle_left_horizon_at != 0) {
      std::printf("; run left the 16-bit serial horizon at decision %llu of "
                  "%llu, unchecked after",
                  static_cast<unsigned long long>(gate.oracle_left_horizon_at),
                  static_cast<unsigned long long>(gate.out.decisions));
    }
    std::printf("\n");
  }
  const std::vector<std::string> diff = outcome_diff(warm.out, gate.out);
  if (!diff.empty()) {
    std::string fields;
    for (const std::string& f : diff) fields += " " + f;
    checks.fail("traced outcome differs from untraced in:" + fields);
  }
  checks.same_digest(gate.out, "traced gate rep");

  std::vector<double> pps, setup, traced_pps;
  std::vector<LayerMetrics> layers;
  const auto t0 = Clock::now();
  while (since(t0) < seconds || pps.size() < 3) {
    const Rep r = run_untraced(w);
    checks.conservation(w, r.out, "untraced rep");
    checks.same_digest(r.out, "untraced rep");
    pps.push_back(r.pps);
    setup.push_back(r.setup_s);
    if (trace == 1) {
      const TracedResult t = run_traced_any(w, /*oracle=*/false);
      checks.conservation(w, t.out, "traced rep");
      checks.same_digest(t.out, "traced rep");
      traced_pps.push_back(t.pps);
      layers.push_back(t.layers);
    }
  }

  const Outcome& o = warm.out;
  const auto frames = static_cast<double>(o.completed);
  LayerMetrics e2e;
  e2e["pps"] = quantile(pps, kPpsQuantile);
  e2e["pps_median"] = median(pps);
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mb"] = rss_mb;
  std::uint64_t violations = 0, misses = 0;
  for (const ss::hw::SlotCounters& c : o.counters) {
    violations += c.violations;
    misses += c.missed_deadlines;
  }
  if (!w.threaded) {
    e2e["model_pci_ns_per_frame"] = static_cast<double>(o.pci_ns) / frames;
    e2e["model_hw_cycles_per_frame"] = static_cast<double>(o.hw_cycles) / frames;
    e2e["delay_p50_us"] = o.delay_p50_us;
    e2e["delay_p99_us"] = o.delay_p99_us;
    e2e["window_violations_per_kframe"] =
        1000.0 * static_cast<double>(violations) / frames;
    e2e["deadline_misses_per_kframe"] =
        1000.0 * static_cast<double>(misses) / frames;
    e2e["late_drop_frac"] =
        static_cast<double>(o.dropped_late) / static_cast<double>(o.offered);
  }
  e2e["fail_frac"] =
      static_cast<double>(checks.failed) / static_cast<double>(checks.attempted);

  std::printf("digest: %016llx (warm-up, traced gate and all %zu reps)\n",
              static_cast<unsigned long long>(checks.digest), pps.size());
  std::printf("end-to-end (untraced; %zu reps, pps = p90 over reps, pps_min "
              "%.6g, pps_max %.6g, setup_s = median):\n",
              pps.size(), *std::min_element(pps.begin(), pps.end()),
              *std::max_element(pps.begin(), pps.end()));
  for (const auto& [k, v] : e2e) print_metric(k, v);

  if (trace == 0) {
    print_json(checks, kEndToEnd, e2e);
    return checks.ok ? 0 : 1;
  }

  LayerMetrics per_layer;
  for (const auto& [k, v0] : layers.front()) {
    (void)v0;
    std::vector<double> vals;
    for (const LayerMetrics& l : layers) {
      const auto it = l.find(k);
      if (it != l.end()) vals.push_back(it->second);
    }
    per_layer[k] = median(vals);
  }
  // Both legs interleave rep by rep, so they see the same co-tenant load.
  const double untraced = quantile(pps, kPpsQuantile);
  const double traced = quantile(traced_pps, kPpsQuantile);
  per_layer["trace.overhead_pct"] =
      untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0;
  std::printf("per-layer (traced driver, median of %zu reps; traced pps %.6g):\n",
              layers.size(), traced);
  for (const auto& [k, v] : per_layer) print_metric(k, v);
  print_json(checks, kPerLayer, per_layer);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
