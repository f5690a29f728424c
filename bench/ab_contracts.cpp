// ab_contracts — in-process A/B contracts for the block-batched pipeline.
//
// perfbench/ is the throughput benchmark of record.  This binary keeps
// the comparisons it cannot run yet.  Each contract interleaves its two
// legs inside one process, so both sample the same background load, and
// keeps the best pps of each leg: the max estimates unthrottled
// capability, which is what a ratio between legs is about.
//
//   * the default decision path against KernelChoice::kReference (block
//     mode, depth 1, 32 tag-only streams, bitonic): the vector kernel
//     and, where it applies, block reuse, which re-places the dirty
//     slots in the previous sort instead of running the passes
//     (DESIGN.md §12), against the per-pair referee;
//   * observability attached against detached (block mode, depth 4, 16
//     streams): the metrics registry, the production audit plane, the
//     sampled audit session alone, and the stage profiler;
//   * batched draining (whole block, depth 0) against winner-only (depth
//     1) at 16 streams, the half of the Section 5.1 block-throughput
//     claim no perfbench workload covers (backlog32_block against
//     backlog32_winner is the 32-stream half).
//
// Every leg runs the Section-5.2 discipline: all frames queued at t=0,
// the clock started after the queues are loaded, PCI time excluded.
//
//   ab_contracts           # 20,000 frames per stream, best of 5
//   ab_contracts --quick   # 2,000 frames per stream, best of 2 (CI)
//
// Exits 1 when a contract fails: production audit overhead of 15% or
// more, metrics-registry overhead of 25% or more, a speedup below 2.0865x
// on the avx512 kernel (0.65 x the 3.21x measured there when the gate was
// set; other kernels are reported, not gated), or a 16-stream batched
// rate that does not beat winner-only.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_common.hpp"
#include "core/endsystem.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/watchdog.hpp"

namespace {

using ss::hw::simd::KernelChoice;

constexpr double kMaxAuditOverheadPct = 15.0;
constexpr double kMaxRegistryOverheadPct = 25.0;
constexpr double kMinAvx512Speedup = 2.0865;

/// The point every observability-overhead row measures.
constexpr unsigned kOverheadDepth = 4;
constexpr unsigned kOverheadStreams = 16;

/// Observability planes attached to a leg; all null is the detached hot
/// path.
struct Planes {
  ss::telemetry::MetricsRegistry* metrics = nullptr;
  ss::telemetry::AuditSession* audit = nullptr;
  ss::telemetry::Profiler* profiler = nullptr;
};

/// One block-mode run of `streams` backlogged fair-share streams (weights
/// 1..4), configured like perfbench's backlog32 workloads; returns
/// packets/sec excluding the modeled PCI exchange.
double run_pps(unsigned batch_depth, unsigned streams,
               std::uint64_t frames_per_stream, const Planes& planes = {},
               KernelChoice kernel = KernelChoice::kAuto) {
  using namespace ss;
  core::EndsystemConfig cfg;
  cfg.chip.slots = streams;
  cfg.chip.cmp_mode = hw::ComparisonMode::kTagOnly;
  cfg.chip.schedule = hw::SortSchedule::kBitonic;
  cfg.chip.block_mode = true;
  cfg.chip.batch_depth = batch_depth;
  cfg.chip.kernel = kernel;
  cfg.pci_batch = 32;
  cfg.keep_series = false;
  cfg.delay_histogram = true;
  cfg.metrics = planes.metrics;
  cfg.audit = planes.audit;
  cfg.profiler = planes.profiler;
  core::Endsystem es(cfg);
  for (unsigned i = 0; i < streams; ++i) {
    dwcs::StreamRequirement r;
    r.kind = dwcs::RequirementKind::kFairShare;
    r.weight = 1.0 + static_cast<double>(i % 4);
    r.droppable = false;
    es.add_stream(r, std::make_unique<queueing::CbrGen>(0), 1500);
  }
  return es.run(frames_per_stream).pps_excl_pci;
}

/// Best pps of each leg over `reps` interleaved A/B pairs.
struct Legs {
  double a = 0;
  double b = 0;
};

template <typename A, typename B>
Legs interleave(unsigned reps, A&& leg_a, B&& leg_b) {
  Legs l;
  for (unsigned i = 0; i < reps; ++i) {
    l.a = std::max(l.a, leg_a());
    l.b = std::max(l.b, leg_b());
  }
  return l;
}

/// Detached leg against the same point with `planes` attached; prints
/// and returns the overhead in percent of the detached rate.
double overhead(const char* name, unsigned reps, std::uint64_t frames,
                const Planes& planes) {
  const Legs l = interleave(
      reps, [&] { return run_pps(kOverheadDepth, kOverheadStreams, frames); },
      [&] {
        return run_pps(kOverheadDepth, kOverheadStreams, frames, planes);
      });
  const double pct = l.a > 0 ? (l.a - l.b) / l.a * 100.0 : 0.0;
  std::printf("%-24s pps off=%.0f  on=%.0f  overhead=%.2f%%\n", name, l.a,
              l.b, pct);
  return pct;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ss;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: ab_contracts [--quick]\n");
      return 2;
    }
  }
  const std::uint64_t frames = quick ? 2000 : 20000;
  const unsigned reps = quick ? 2 : 5;

  bench::banner("A/B contracts",
                "SIMD speedup, observability overhead, batched vs "
                "winner-only draining");
  std::printf("%llu frames per stream, best of %u interleaved reps per leg\n",
              static_cast<unsigned long long>(frames), reps);

  bench::section("simd kernel vs reference (block depth 1, 32 streams)");
  const char* kernel = hw::simd::kernel_name(hw::simd::default_kernel());
  const Legs su = interleave(
      reps,
      [&] { return run_pps(1, 32, frames, {}, KernelChoice::kReference); },
      [&] { return run_pps(1, 32, frames); });
  const double speedup = su.a > 0 ? su.b / su.a : 0.0;
  std::printf("kernel=%s  pps reference=%.0f  simd=%.0f  speedup=%.2fx\n",
              kernel, su.a, su.b, speedup);

  bench::section("observability overhead (block depth 4, 16 streams)");
  double registry_pct = 0, audit_pct = 0;
  {
    telemetry::MetricsRegistry registry;
    registry_pct = overhead("metrics registry", reps, frames, {&registry});
  }
  {
    // Production configuration: audit sampled 1-in-64, its exact counters
    // bound into a registry, the anomaly watchdog polling that registry.
    telemetry::MetricsRegistry registry;
    telemetry::AuditSession audit(kOverheadStreams);
    audit.set_sampling(64);
    audit.audit().bind_registry(registry);
    telemetry::Watchdog watchdog(registry, &audit);
    watchdog.start();
    audit_pct = overhead("production audit", reps, frames, {nullptr, &audit});
    watchdog.stop();
  }
  {
    telemetry::AuditSession audit(kOverheadStreams);
    audit.set_sampling(64);
    overhead("sampled audit alone", reps, frames, {nullptr, &audit});
  }
  {
    telemetry::Profiler profiler;
    overhead("profiler", reps, frames, {nullptr, nullptr, &profiler});
  }

  bench::section("batched vs winner-only (16 streams)");
  const Legs bw = interleave(
      reps, [&] { return run_pps(0, 16, frames); },
      [&] { return run_pps(1, 16, frames); });
  std::printf("pps whole block=%.0f  winner-only=%.0f\n", bw.a, bw.b);

  bench::section("verdicts");
  bool all_ok = true;
  const auto verdict = [&all_ok](bool ok, const char* what) {
    all_ok = all_ok && ok;
    std::printf("%-40s %s\n", what, ok ? "PASS" : "FAIL");
  };
  verdict(audit_pct < kMaxAuditOverheadPct,
          "production audit overhead < 15%");
  verdict(registry_pct < kMaxRegistryOverheadPct,
          "metrics registry overhead < 25%");
  if (std::strcmp(kernel, "avx512") == 0) {
    verdict(speedup >= kMinAvx512Speedup, "avx512 speedup >= 2.0865x");
  } else {
    std::printf("%-40s not gated (%s)\n", "simd speedup", kernel);
  }
  verdict(bw.a > bw.b, "batched > winner-only at 16 streams");
  return all_ok ? 0 : 1;
}
