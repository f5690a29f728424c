#include "workloads.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace perfbench {

namespace {

using ss::dwcs::RequirementKind;
using ss::dwcs::StreamRequirement;

// Frames per rep.  A rep touches about 80 B per frame (the pre-generated
// frame, its ring slot, the TE record and the QM arrival log), so these
// sizes keep a drain within a few MB of cache.  On a shared host that
// matters: interleaved runs gave a run-to-run spread of 5% (winner) and 10%
// (mixed) with these sizes, against 11% and 17% with reps 10x larger,
// whose drains streamed through memory that co-tenants also contend for.
constexpr std::uint64_t kBacklogWinnerFrames = 32'000;
constexpr std::uint64_t kBacklogBlockFrames = 64'000;
constexpr std::uint64_t kMixedFrames = 32'000;
constexpr std::uint64_t kThreadedFramesPerStream = 20'000;

constexpr double kMixedLoad = 0.94;  ///< offered share of the link

// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, ss::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// Fair-share weights 1, 2, 3, 4 repeated over n streams, placed on slots
// by the seed.  The multiset is fixed, so every seed offers the same load
// and only slot placement (ID tie-breaks, lane positions) varies.
std::vector<double> seeded_weights(ss::Rng& rng, unsigned n) {
  std::vector<double> w(n);
  for (unsigned i = 0; i < n; ++i) w[i] = 1.0 + static_cast<double>(i % 4);
  shuffle(w, rng);
  return w;
}

Workload backlog32(const std::string& name, std::uint64_t seed,
                   unsigned batch_depth, std::uint64_t total_frames) {
  Workload w;
  w.name = name;
  w.cfg.chip.slots = 32;
  w.cfg.chip.cmp_mode = ss::hw::ComparisonMode::kTagOnly;
  w.cfg.chip.schedule = ss::hw::SortSchedule::kBitonic;
  w.cfg.chip.block_mode = true;
  w.cfg.chip.batch_depth = batch_depth;
  w.cfg.pci_batch = 32;
  w.cfg.keep_series = false;
  w.cfg.delay_histogram = true;

  ss::Rng rng(seed ^ 0xb10c32b10c32ULL);
  const std::vector<double> weights = seeded_weights(rng, 32);
  double weight_sum = 0.0;
  for (const double x : weights) weight_sum += x;
  // Weight-proportional frame counts keep every stream backlogged until
  // the common end of the run (see Endsystem::run).
  const double per_weight = static_cast<double>(total_frames) / weight_sum;
  for (const double x : weights) {
    StreamPlan p;
    p.req.kind = RequirementKind::kFairShare;
    p.req.weight = x;
    p.req.droppable = false;
    p.frames = static_cast<std::uint64_t>(std::llround(x * per_weight));
    w.streams.push_back(p);
  }
  return w;
}

Workload mixed16_poisson(std::uint64_t seed) {
  Workload w;
  w.name = "mixed16_poisson";
  w.cfg.chip.slots = 16;
  w.cfg.chip.cmp_mode = ss::hw::ComparisonMode::kDwcsFull;
  // The bitonic schedule fully sorts the block, so a depth-K grant burst
  // is exactly the oracle's top K (perfect-shuffle passes only find the
  // winner).
  w.cfg.chip.schedule = ss::hw::SortSchedule::kBitonic;
  w.cfg.chip.block_mode = true;
  w.cfg.chip.batch_depth = 4;
  w.cfg.pci_batch = 32;
  w.cfg.keep_series = false;
  w.cfg.delay_histogram = true;

  // Fixed stream set, placed on slots by the seed: 6 droppable
  // window-constrained (x/y = 1/4), 5 EDF and 5 fair-share streams.
  const auto wc = [](std::uint32_t period) {
    StreamRequirement r;
    r.kind = RequirementKind::kWindowConstrained;
    r.period = period;
    r.loss_num = 1;
    r.loss_den = 4;
    r.droppable = true;
    return r;
  };
  const auto edf = [](std::uint32_t period) {
    StreamRequirement r;
    r.kind = RequirementKind::kEdf;
    r.period = period;
    r.droppable = false;
    return r;
  };
  const auto fair = [](double weight) {
    StreamRequirement r;
    r.kind = RequirementKind::kFairShare;
    r.weight = weight;
    r.droppable = false;
    return r;
  };
  std::vector<StreamRequirement> reqs = {
      wc(16),  wc(16),  wc(24),  wc(24),  wc(32),  wc(32),
      edf(16), edf(24), edf(24), edf(32), edf(32),
      fair(1), fair(2), fair(2), fair(3), fair(4)};
  ss::Rng rng(seed ^ 0x313c3d16ULL);
  shuffle(reqs, rng);
  // Every stream offers kMixedLoad of its reserved rate 1/T_i, so the
  // link load is kMixedLoad * sum(1/T_i) ~= kMixedLoad, and every stream
  // runs for the same span D packet-times.
  const std::vector<std::uint32_t> periods = ss::dwcs::fair_share_periods(reqs);
  double rate_sum = 0.0;
  for (const std::uint32_t t : periods) rate_sum += 1.0 / t;
  const double span_pt =
      static_cast<double>(kMixedFrames) / (kMixedLoad * rate_sum);
  const double ptime = ss::packet_time_ns(w.frame_bytes, w.cfg.link_gbps);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    StreamPlan p;
    p.req = reqs[i];
    p.mean_interval_ns = periods[i] * ptime / kMixedLoad;
    p.gen_seed = rng();
    p.frames = static_cast<std::uint64_t>(
        std::llround(span_pt * kMixedLoad / periods[i]));
    w.streams.push_back(p);
  }
  return w;
}

Workload threaded16(std::uint64_t seed) {
  Workload w;
  w.name = "threaded16";
  w.threaded = true;
  w.tcfg.chip.slots = 16;
  w.tcfg.chip.cmp_mode = ss::hw::ComparisonMode::kTagOnly;
  w.tcfg.chip.schedule = ss::hw::SortSchedule::kBitonic;
  w.tcfg.chip.block_mode = true;
  w.tcfg.chip.batch_depth = 4;
  w.tcfg.frame_bytes = w.frame_bytes;
  ss::Rng rng(seed ^ 0x7d16ULL);
  for (const double x : seeded_weights(rng, 16)) {
    StreamPlan p;
    p.req.kind = RequirementKind::kFairShare;
    p.req.weight = x;
    p.req.droppable = false;
    // ThreadedEndsystem::run takes one count for every stream.
    p.frames = kThreadedFramesPerStream;
    w.streams.push_back(p);
  }
  return w;
}

}  // namespace

std::uint64_t Workload::total_frames() const {
  std::uint64_t n = 0;
  for (const StreamPlan& p : streams) n += p.frames;
  return n;
}

std::vector<StreamRequirement> Workload::requirements() const {
  std::vector<StreamRequirement> reqs;
  reqs.reserve(streams.size());
  for (const StreamPlan& p : streams) reqs.push_back(p.req);
  return reqs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "backlog32_winner", "backlog32_block", "mixed16_poisson", "threaded16"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "backlog32_winner") {
    return backlog32(name, seed, 1, kBacklogWinnerFrames);
  }
  if (name == "backlog32_block") {
    return backlog32(name, seed, 0, kBacklogBlockFrames);
  }
  if (name == "mixed16_poisson") return mixed16_poisson(seed);
  if (name == "threaded16") return threaded16(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::unique_ptr<ss::queueing::TrafficGen> make_gen(const StreamPlan& p) {
  if (p.mean_interval_ns <= 0.0) {
    return std::make_unique<ss::queueing::CbrGen>(0);
  }
  return std::make_unique<ss::queueing::PoissonGen>(p.mean_interval_ns,
                                                    p.gen_seed);
}

ss::hw::SlotConfig slot_config(const StreamRequirement& r,
                               std::uint32_t period) {
  ss::hw::SlotConfig sc = ss::dwcs::to_slot_config(r, period);
  if (r.kind == RequirementKind::kFairShare) {
    sc.initial_deadline = ss::hw::Deadline{period};
  }
  return sc;
}

ss::dwcs::StreamSpec stream_spec(const StreamRequirement& r,
                                 std::uint32_t period) {
  ss::dwcs::StreamSpec spec = ss::dwcs::to_stream_spec(r, period);
  if (r.kind == RequirementKind::kFairShare) spec.initial_deadline = period;
  return spec;
}

}  // namespace perfbench
