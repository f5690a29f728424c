#include "telemetry/profiler.hpp"

#include <chrono>

#include "util/json.hpp"

namespace ss::telemetry {

namespace {

constexpr std::memory_order kRel = std::memory_order_relaxed;

// Stage durations span a comparator pass (tens of ns) to a long threaded
// drain (ms); 64 log bins over 16 ns .. 1 s keep per-bin error small at
// both ends.
constexpr double kHistLoNs = 16.0;
constexpr double kHistHiNs = 1e9;
constexpr std::size_t kHistBins = 64;

// Nesting for the flamegraph view: shuffle passes run inside the chip
// decision scope; every other stage is a root of the pipeline frame.
constexpr std::size_t kNoParent = kProfStages;
constexpr std::array<std::size_t, kProfStages> kParent = {
    kNoParent,                                         // chip_decision
    static_cast<std::size_t>(ProfStage::kChipDecision), // shuffle_passes
    kNoParent, kNoParent, kNoParent, kNoParent,
};

#if SS_PROF_HAVE_RDTSC
// ns per tsc tick, calibrated once against steady_clock.  ~1 ms of spin:
// long enough for a stable ratio, short enough to vanish in any run that
// wants a profiler.
double tsc_ns_per_tick() noexcept {
  static const double ratio = [] {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const std::uint64_t c0 = Profiler::now_ticks();
    while (clock::now() - t0 < std::chrono::milliseconds(1)) {
    }
    const auto t1 = clock::now();
    const std::uint64_t c1 = Profiler::now_ticks();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count();
    return c1 > c0 ? static_cast<double>(ns) / static_cast<double>(c1 - c0)
                   : 1.0;
  }();
  return ratio;
}
#endif

using util::append_double;
using util::append_u64;

}  // namespace

const char* prof_stage_name(std::size_t stage) noexcept {
  switch (stage) {
    case 0: return "chip_decision";
    case 1: return "shuffle_passes";
    case 2: return "pci";
    case 3: return "queue_drain";
    case 4: return "transmit";
    case 5: return "reload_commit";
    default: return "unknown";
  }
}

Profiler::Profiler() {
#if SS_PROF_HAVE_RDTSC
  ns_per_tick_ = tsc_ns_per_tick();  // calibrate up front, not mid-run
#endif
  for (std::size_t s = 0; s < kProfStages; ++s) {
    own_[s] = std::make_unique<Histogram>(kHistLoNs, kHistHiNs, kHistBins,
                                          /*log_scale=*/true);
    hist_[s] = own_[s].get();
  }
}

void Profiler::record(ProfStage stage, std::uint64_t ns) noexcept {
  const auto s = static_cast<std::size_t>(stage);
  if (s >= kProfStages) return;
  // The count doubles as the decimation counter: every 8th record
  // (including the first) pays the logspace histogram observe, so
  // quantiles stay live while the steady-state exit is two single-writer
  // stores.
  const std::uint64_t n = stages_[s].count.load(kRel);
  stages_[s].count.store(n + 1, kRel);
  single_writer_add(stages_[s].total_ns, ns);
  if ((n & 7u) == 0) hist_[s]->observe(static_cast<double>(ns));
}

void Profiler::record_ticks(ProfStage stage, std::uint64_t ticks) noexcept {
  record(stage, static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                           ns_per_tick_));
}

void Profiler::bind_registry(MetricsRegistry& reg) {
  for (std::size_t s = 0; s < kProfStages; ++s) {
    hist_[s] = &reg.histogram(
        std::string("prof.") + prof_stage_name(s) + ".ns", kHistLoNs,
        kHistHiNs, kHistBins, /*log_scale=*/true);
  }
}

std::uint64_t Profiler::count(ProfStage stage) const noexcept {
  const auto s = static_cast<std::size_t>(stage);
  return s < kProfStages ? stages_[s].count.load(kRel) : 0;
}

std::uint64_t Profiler::total_ns(ProfStage stage) const noexcept {
  const auto s = static_cast<std::size_t>(stage);
  return s < kProfStages ? stages_[s].total_ns.load(kRel) : 0;
}

std::string Profiler::to_json() const {
  std::array<std::uint64_t, kProfStages> total{};
  std::array<std::uint64_t, kProfStages> child{};
  std::uint64_t root_total = 0;
  for (std::size_t s = 0; s < kProfStages; ++s) {
    total[s] = stages_[s].total_ns.load(kRel);
    if (kParent[s] == kNoParent) {
      root_total += total[s];
    } else {
      child[kParent[s]] += total[s];
    }
  }

  std::string out;
  out.reserve(1024);
  out += "{\"clock\":\"";
  out += clock_name();
  out += "\",\"total_ns\":";
  append_u64(out, root_total);
  out += ",\"stages\":[";
  for (std::size_t s = 0; s < kProfStages; ++s) {
    if (s) out += ",";
    const std::uint64_t self =
        total[s] >= child[s] ? total[s] - child[s] : 0;
    out += "{\"name\":\"";
    out += prof_stage_name(s);
    out += "\",\"parent\":\"";
    if (kParent[s] != kNoParent) out += prof_stage_name(kParent[s]);
    out += "\",\"count\":";
    append_u64(out, stages_[s].count.load(kRel));
    out += ",\"total_ns\":";
    append_u64(out, total[s]);
    out += ",\"self_ns\":";
    append_u64(out, self);
    out += ",\"share_pct\":";
    append_double(out, root_total == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(total[s]) /
                                 static_cast<double>(root_total));
    out += ",\"p50_ns\":";
    append_double(out, hist_[s]->quantile(50.0));
    out += ",\"p90_ns\":";
    append_double(out, hist_[s]->quantile(90.0));
    out += ",\"p99_ns\":";
    append_double(out, hist_[s]->quantile(99.0));
    out += "}";
  }
  out += "]}";
  return out;
}

std::uint64_t Profiler::ticks_to_ns(std::uint64_t ticks) noexcept {
#if SS_PROF_HAVE_RDTSC
  return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                    tsc_ns_per_tick());
#else
  using period = std::chrono::steady_clock::period;
  return ticks * period::num * 1000000000ull / period::den;
#endif
}

const char* Profiler::clock_name() noexcept {
#if SS_PROF_HAVE_RDTSC
  return "rdtsc";
#else
  return "steady_clock";
#endif
}

}  // namespace ss::telemetry
