// profiler.hpp — SS_PROF: hot-path self-profiling of the pipeline stages.
//
// The bench harness answers "how fast is the pipeline"; this layer answers
// "where does the host wall-time go" while a production run is serving
// traffic.  A Profiler holds one slot per pipeline stage — chip decision,
// shuffle passes, PCI exchange, queue drain, transmit, reload-commit — and
// SS_PROF(profiler, stage) opens a scoped timer that attributes the
// enclosing block's wall-time to that stage on scope exit.
//
// Clock: the raw rdtsc counter on x86-64 (calibrated once against
// steady_clock at Profiler construction), std::chrono::steady_clock
// elsewhere.  The timestamp reads are inline and a scope makes exactly
// one out-of-line call (record_ticks on exit), so the profiler can stay
// attached at production rates; a detached site pays one null test.
//
// Durations feed fixed logspace histograms (16 ns .. 1 s), per stage.
// Every record (scope exit or record()) decimates the histogram observe
// 1-in-8 (the per-stage count/total_ns stay exact) — quantiles are
// unbiased estimates from every 8th record, totals and counts are not
// sampled.
// bind_registry() re-homes them in a MetricsRegistry under the prof.*
// namespace (prof.<stage>.ns) so they ride in metrics snapshots;
// to_json() emits the flamegraph-style `profile` section of the run
// document (docs/formats.md) with per-stage totals, self-time (shuffle
// passes nest inside the chip decision) and quantiles.
//
// Concurrency: each stage has a single writer (the thread that owns that
// pipeline stage — in the threaded endsystem the scheduler thread owns
// every profiled stage), so a record advances the per-stage totals and
// the stage's histogram (one writer per Histogram, metrics.hpp) with
// relaxed load+store pairs; distinct stages may record from distinct
// threads concurrently, and exports snapshot per-stage totals the usual
// relaxed way from any thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "telemetry/metrics.hpp"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SS_PROF_HAVE_RDTSC 1
#else
#define SS_PROF_HAVE_RDTSC 0
#endif

namespace ss::telemetry {

enum class ProfStage : std::uint8_t {
  kChipDecision = 0,  ///< one chip decision cycle, FSM tick to outcome
  kShufflePasses = 1, ///< the SCHEDULE network passes (inside kChipDecision)
  kPci = 2,           ///< PCI grant/arrival exchange with the card
  kQueueDrain = 3,    ///< host arrival delivery into the stream rings
  kTransmit = 4,      ///< grant-burst hand-off to the transmission engine
  kReloadCommit = 5,  ///< admission-reload mailbox commit (threaded loop)
};

inline constexpr std::size_t kProfStages = 6;

/// Stable lowercase stage name ("chip_decision", "shuffle_passes", ...).
[[nodiscard]] const char* prof_stage_name(std::size_t stage) noexcept;

class Profiler {
 public:
  Profiler();

  /// Attribute `ns` of wall-time to `stage`: bumps the exact count/total
  /// and feeds the histogram 1-in-8.  The stage's owning thread only.
  void record(ProfStage stage, std::uint64_t ns) noexcept;

  /// Scope-exit path: `ticks` of raw clock delta for `stage`, converted
  /// once and recorded.  The stage's owning thread only.
  void record_ticks(ProfStage stage, std::uint64_t ticks) noexcept;

  /// Re-home the per-stage histograms in `reg` as prof.<stage>.ns so they
  /// appear in snapshots/exports.  Durations recorded before the bind stay
  /// in the private histograms and are not migrated; bind at attach time.
  void bind_registry(MetricsRegistry& reg);

  [[nodiscard]] std::uint64_t count(ProfStage stage) const noexcept;
  [[nodiscard]] std::uint64_t total_ns(ProfStage stage) const noexcept;

  /// The run document's one-line `profile` section (docs/formats.md).
  [[nodiscard]] std::string to_json() const;

  /// Raw timestamp in clock ticks / tick->ns conversion / clock identity
  /// ("rdtsc" or "steady_clock").  now_ticks is inline — it runs twice
  /// per SS_PROF scope.
  [[nodiscard]] static std::uint64_t now_ticks() noexcept {
#if SS_PROF_HAVE_RDTSC
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }
  [[nodiscard]] static std::uint64_t ticks_to_ns(std::uint64_t ticks) noexcept;
  [[nodiscard]] static const char* clock_name() noexcept;

 private:
  struct Stage {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
  };
  std::array<Stage, kProfStages> stages_{};
  double ns_per_tick_ = 1.0;  ///< cached at construction; 1.0 for ns clocks
  std::array<std::unique_ptr<Histogram>, kProfStages> own_;
  std::array<Histogram*, kProfStages> hist_{};
};

/// RAII stage scope: stamps on construction, records on destruction.  A
/// null profiler makes both ends a no-op.
class ProfScope {
 public:
  ProfScope(Profiler* p, ProfStage stage) noexcept : p_(p), stage_(stage) {
    if (p_ != nullptr) t0_ = Profiler::now_ticks();
  }
  ~ProfScope() {
    if (p_ != nullptr) {
      p_->record_ticks(stage_, Profiler::now_ticks() - t0_);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
  ProfStage stage_;
  std::uint64_t t0_ = 0;
};

#define SS_PROF_CAT2(a, b) a##b
#define SS_PROF_CAT(a, b) SS_PROF_CAT2(a, b)
/// Scoped stage timer; a null profiler makes it a no-op.
#define SS_PROF(profiler, stage)                              \
  const ::ss::telemetry::ProfScope SS_PROF_CAT(ss_prof_scope_, \
                                               __LINE__)((profiler), (stage))

}  // namespace ss::telemetry
