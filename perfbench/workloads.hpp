// workloads.hpp — the benchmark's named workloads, built from a seed.
//
// A workload is a chip/pipeline configuration plus one plan per stream:
// its requirement, its arrival process and its frame count.  The same
// (name, seed) always yields the same plan; the program under test only
// ever sees the generated streams and frames.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/endsystem.hpp"
#include "core/threaded_endsystem.hpp"
#include "dwcs/modes.hpp"
#include "queueing/traffic_gen.hpp"

namespace perfbench {

struct StreamPlan {
  ss::dwcs::StreamRequirement req;
  /// Mean Poisson inter-arrival time; 0 queues every frame at t=0.
  double mean_interval_ns = 0.0;
  std::uint64_t gen_seed = 0;
  std::uint64_t frames = 0;
};

struct Workload {
  std::string name;
  bool threaded = false;
  ss::core::EndsystemConfig cfg;      ///< Endsystem workloads
  ss::core::ThreadedConfig tcfg;      ///< ThreadedEndsystem workloads
  std::uint32_t frame_bytes = 1500;
  std::vector<StreamPlan> streams;

  [[nodiscard]] std::uint64_t total_frames() const;
  [[nodiscard]] std::vector<ss::dwcs::StreamRequirement> requirements() const;
};

/// Names accepted by make_workload(), in the order the benchmark lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build workload `name` from `seed`.  Throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The arrival process of one stream (fresh generator, same frames).
[[nodiscard]] std::unique_ptr<ss::queueing::TrafficGen> make_gen(
    const StreamPlan& p);

/// Requirement -> chip slot configuration exactly as
/// Endsystem::finalize_admission derives it (fair-share first deadlines
/// staggered one period out).
[[nodiscard]] ss::hw::SlotConfig slot_config(
    const ss::dwcs::StreamRequirement& r, std::uint32_t period);

/// The software oracle's twin of slot_config().
[[nodiscard]] ss::dwcs::StreamSpec stream_spec(
    const ss::dwcs::StreamRequirement& r, std::uint32_t period);

}  // namespace perfbench
