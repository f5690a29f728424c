// sampler.hpp — deterministic per-N decision sampling for the audit plane.
//
// The overhead rows put a number on the problem: full rule-provenance
// audit costs ~60% of throughput at sim rates, so the richest signals were
// exactly the ones that had to be switched off under load.  The
// DecisionSampler is the fix: the chip asks it once per committed decision
// whether THIS decision gets the expensive treatment (per-comparison
// provenance atomics + a flight-recorder ring entry).  Cheap exact
// counters — grants, drops, violations, per-cause burns, total
// comparisons — stay unconditional regardless of the answer; only the
// per-rule profile and the ring become sampled estimates.
//
// Sampling is deterministic per-N with a seeded phase: decision k is
// sampled iff k ≡ phase (mod every), phase = splitmix64(seed) mod every.
// Determinism keeps differential campaigns reproducible; the seeded phase
// decorrelates the sample grid from periodic workloads (every fleet
// member sampling decision 0, 64, 128... of the same periodic arrival
// pattern would all see the same rule mix).
//
// Override: force_next() marks the next tick sampled regardless of the
// grid.  The session arms it on {violation, fault, failover} so anomalous
// decisions always land in the flight recorder with full provenance —
// sampling thins the steady state, never the interesting tail.
//
// Concurrency: tick() is scheduling-thread-only (it is the per-decision
// gate and the tallies' one writer, metrics.hpp).  force_next() and all
// accessors are relaxed-atomic and safe from any thread (fault hooks and
// the watchdog arm/inspect it mid-run).
#pragma once

#include <atomic>
#include <cstdint>

#include "telemetry/metrics.hpp"

namespace ss::telemetry {

class DecisionSampler {
 public:
  /// `every` <= 1 samples every decision (the pre-sampling behavior);
  /// `seed` picks the phase of the sampling grid.
  explicit DecisionSampler(std::uint32_t every = 1,
                           std::uint64_t seed = 0) noexcept {
    configure(every, seed);
  }

  /// Re-arm the grid (scheduling thread, between runs).  Counters keep
  /// accumulating across configure() calls; only the grid restarts.
  void configure(std::uint32_t every, std::uint64_t seed = 0) noexcept {
    every_ = every < 1 ? 1 : every;
    seed_ = seed;
    phase_ = every_ > 1 ? static_cast<std::uint32_t>(splitmix64(seed) % every_)
                        : 0;
    pos_ = 0;
  }

  /// Decision boundary: advance the grid and answer "is this decision
  /// sampled?".  Scheduling thread only.
  [[nodiscard]] bool tick() noexcept {
    single_writer_add(decisions_);
    // Steady state pays a relaxed load; the lock-prefixed exchange runs
    // only when some thread actually armed the override.
    const bool forced =
        force_.load(std::memory_order_relaxed) &&
        force_.exchange(false, std::memory_order_relaxed);
    bool hit = forced;
    if (every_ <= 1) {
      hit = true;
    } else {
      hit = hit || pos_ == phase_;
      if (++pos_ == every_) pos_ = 0;
    }
    if (forced) single_writer_add(forced_);
    if (hit) single_writer_add(sampled_);
    return hit;
  }

  /// Arm the override: the next tick() is sampled no matter where the
  /// grid is.  Any thread.
  void force_next() noexcept {
    force_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t every() const noexcept { return every_; }
  [[nodiscard]] std::uint32_t phase() const noexcept { return phase_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Decisions seen / sampled / sampled-because-forced (any thread).
  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return decisions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sampled() const noexcept {
    return sampled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forced() const noexcept {
    return forced_.load(std::memory_order_relaxed);
  }

  /// Multiplier that scales a sampled tally into an estimate of the full
  /// tally (decisions/sampled); 1.0 until anything was sampled.
  [[nodiscard]] double scale() const noexcept {
    const std::uint64_t s = sampled();
    return s == 0 ? 1.0
                  : static_cast<double>(decisions()) / static_cast<double>(s);
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint32_t every_ = 1;
  std::uint32_t phase_ = 0;
  std::uint32_t pos_ = 0;  ///< grid position (scheduling thread only)
  std::uint64_t seed_ = 0;
  std::atomic<bool> force_{false};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> forced_{0};
};

}  // namespace ss::telemetry
