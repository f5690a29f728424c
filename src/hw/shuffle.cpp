#include "hw/shuffle.hpp"

#include <cassert>

#include "telemetry/audit.hpp"
#include "util/bitops.hpp"

namespace ss::hw {

// The audit layer names rules by plain index so telemetry need not include
// hw headers; pin the two taxonomies together here.
static_assert(static_cast<std::size_t>(Rule::kPendingOnly) == 0);
static_assert(static_cast<std::size_t>(Rule::kDeadline) == 1);
static_assert(static_cast<std::size_t>(Rule::kWindowConstraint) == 2);
static_assert(static_cast<std::size_t>(Rule::kZeroDenominator) == 3);
static_assert(static_cast<std::size_t>(Rule::kNumerator) == 4);
static_assert(static_cast<std::size_t>(Rule::kFcfsArrival) == 5);
static_assert(static_cast<std::size_t>(Rule::kIdTieBreak) == 6);
static_assert(telemetry::kAuditRules == 7);
static_assert(kMaxSlots <= telemetry::kAuditMaxStreams);

unsigned schedule_passes(SortSchedule s, unsigned n) {
  const unsigned k = log2_ceil(n);
  switch (s) {
    case SortSchedule::kPerfectShuffle:
      return k;
    case SortSchedule::kBitonic:
      return k * (k + 1) / 2;
    case SortSchedule::kOddEven:
      return n;
  }
  return k;
}

ShuffleNetwork::ShuffleNetwork(unsigned slots, SortSchedule schedule,
                               ComparisonMode mode,
                               simd::KernelChoice kernel)
    : slots_(slots), mode_(mode), lanes_(slots) {
  assert(is_pow2(slots) && slots >= 2 && slots <= kMaxSlots);
  // kAuto defers to the process-wide SS_SIMD + CPU dispatch; an explicit
  // choice (tests, the bench's scalar baseline leg) is resolved directly.
  kernel_ = (kernel == simd::KernelChoice::kAuto) ? simd::default_kernel()
                                                  : simd::resolve(kernel);
  build_schedule(schedule);
  total_passes_ = static_cast<unsigned>(schedule_pairs_.size());
}

void ShuffleNetwork::build_schedule(SortSchedule s) {
  const unsigned n = slots_;
  schedule_pairs_.clear();
  switch (s) {
    case SortSchedule::kPerfectShuffle: {
      // log2(N) passes of the shuffle-exchange interconnect.  A k-pass
      // recirculating shuffle-exchange is topologically an Omega network,
      // whose in-place equivalent is the butterfly: on pass p the Decision
      // blocks compare lanes whose indices differ in bit (k-1-p), winner to
      // the lower lane.  The max-priority stream therefore wins a path down
      // the implicit binary tree and lands in lane 0 after k passes — the
      // tournament property the WR configuration relies on.
      const unsigned k = log2_ceil(n);
      for (unsigned p = 0; p < k; ++p) {
        const unsigned bit = 1u << (k - 1 - p);
        std::vector<PairSpec> pairs;
        pairs.reserve(n / 2);
        for (unsigned i = 0; i < n; ++i) {
          if ((i & bit) == 0) pairs.push_back({i, i | bit, false});
        }
        schedule_pairs_.push_back(std::move(pairs));
      }
      break;
    }
    case SortSchedule::kBitonic: {
      // Batcher's bitonic network.  `descending` flips the comparator so
      // the merged sequences interleave correctly; after all passes lane 0
      // holds the highest-priority stream.
      for (unsigned span = 2; span <= n; span <<= 1) {
        for (unsigned j = span >> 1; j > 0; j >>= 1) {
          std::vector<PairSpec> pairs;
          pairs.reserve(n / 2);
          for (unsigned i = 0; i < n; ++i) {
            const unsigned l = i ^ j;
            if (l > i) pairs.push_back({i, l, (i & span) != 0});
          }
          schedule_pairs_.push_back(std::move(pairs));
        }
      }
      break;
    }
    case SortSchedule::kOddEven: {
      for (unsigned p = 0; p < n; ++p) {
        std::vector<PairSpec> pairs;
        for (unsigned i = (p % 2); i + 1 < n; i += 2) {
          pairs.push_back({i, i + 1, false});
        }
        schedule_pairs_.push_back(std::move(pairs));
      }
      break;
    }
  }

  // Lower each pass for the vector kernel: the generic pair list for the
  // SWAR fallback, plus a butterfly descriptor (single power-of-two
  // stride, pair-symmetric direction lanes) when the pass has the
  // i <-> i^stride shape every perfect-shuffle and bitonic pass has.
  plan_.clear();
  plan_.reserve(schedule_pairs_.size());
  total_pairs_ = 0;
  for (const auto& pairs : schedule_pairs_) {
    simd::PassPlan pp;
    pp.pairs.reserve(pairs.size());
    for (const PairSpec& p : pairs) {
      pp.pairs.push_back({static_cast<std::uint16_t>(p.lo),
                          static_cast<std::uint16_t>(p.hi),
                          static_cast<std::uint16_t>(p.descending ? 1 : 0)});
    }
    if (pairs.size() == slots_ / 2 && !pairs.empty()) {
      const unsigned stride = pairs[0].lo ^ pairs[0].hi;
      bool butterfly = is_pow2(stride);
      for (const PairSpec& p : pairs) {
        if ((p.lo ^ p.hi) != stride || (p.lo & stride) != 0) {
          butterfly = false;
          break;
        }
      }
      if (butterfly) {
        pp.butterfly = true;
        pp.stride = stride;
        for (const PairSpec& p : pairs) {
          const std::uint16_t d = p.descending ? 0xFFFFu : 0u;
          pp.desc[p.lo] = d;
          pp.desc[p.hi] = d;
          if (p.descending) {
            pp.desc_bits |= (1u << p.lo) | (1u << p.hi);
          }
        }
      }
    }
    total_pairs_ += pairs.size();
    plan_.push_back(std::move(pp));
  }
}

void ShuffleNetwork::load(std::span<const AttrWord> words) {
  assert(words.size() == lanes_.size());
  bool all_pending = true;
  for (unsigned i = 0; i < slots_; ++i) {
    lanes_[i] = words[i];
    all_pending = all_pending && words[i].pending;
  }
  // Pendingness is pass-invariant (passes permute lanes, never clear the
  // flag), so the all-backlogged fast path — every pair has a pending
  // operand — holds for the whole decision.
  all_pending_ = all_pending;
  soa_loaded_ = false;
  pass_ = 0;
}

void ShuffleNetwork::materialize_lanes() const {
  for (unsigned i = 0; i < slots_; ++i) lanes_[i] = regs_.get(i);
  soa_loaded_ = false;
}

void ShuffleNetwork::block_ids(std::vector<SlotId>& out) const {
  if (soa_loaded_) {
    // Branchless compaction: append every lane's id, advance the cursor
    // only past pending ones, then trim.  No per-push capacity check and
    // no data-dependent branch in the loop.
    const std::size_t base = out.size();
    out.resize(base + slots_);
    SlotId* const dst = out.data() + base;
    unsigned k = 0;
    for (unsigned i = 0; i < slots_; ++i) {
      dst[k] = static_cast<SlotId>(regs_.id[i]);
      k += static_cast<unsigned>(regs_.pend[i] != 0);
    }
    out.resize(base + k);
  } else {
    for (unsigned i = 0; i < slots_; ++i) {
      if (lanes_[i].pending) out.push_back(lanes_[i].id);
    }
  }
}

unsigned ShuffleNetwork::step() {
  assert(pass_ < total_passes_);
  if (soa_loaded_) materialize_lanes();
  const auto& pairs = schedule_pairs_[pass_];
  unsigned swaps = 0;
  // Pending-comparison tally: O(1) on the all-backlogged fast path
  // (every pair qualifies), per-pair only in the mixed case, so an
  // unsampled decision at full contention pays nothing here.
  unsigned pending_pairs = 0;
  // All Decision blocks fire concurrently: read both operands of every
  // pair before writing any result, exactly like registered outputs.
  for (const PairSpec& p : pairs) {
    const AttrWord a = lanes_[p.lo];
    const AttrWord b = lanes_[p.hi];
    const DecisionResult r = decide(a, b, mode_);
    const bool a_wins = r.a_wins;
    if (audit_live_ && (a.pending || b.pending)) {
      const AttrWord& win = a_wins ? a : b;
      const AttrWord& lose = a_wins ? b : a;
      audit_->on_comparison(win.id, lose.id,
                            static_cast<std::uint8_t>(r.rule));
    }
    if (!all_pending_ && (a.pending || b.pending)) ++pending_pairs;
    const bool swap = p.descending ? a_wins : !a_wins;
    if (swap) {
      lanes_[p.lo] = b;
      lanes_[p.hi] = a;
      ++swaps;
    }
  }
  total_comparisons_ += pairs.size();
  pending_comparisons_ += all_pending_ ? pairs.size() : pending_pairs;
  total_swaps_ += swaps;
  ++pass_;
  return swaps;
}

void ShuffleNetwork::run_all() {
  // Whole-decision fast path: evaluate every pass with the branch-free
  // stage kernel.  Only taken when (a) a kernel is selected, (b) the
  // decision starts from pass 0 (partial step()ed cycles keep scalar
  // semantics for the steering tests) and (c) no live audit hook — the
  // audit plane attributes a Rule to every pending comparison, which is
  // per-pair provenance the vector kernel does not produce; sampled
  // decisions therefore recirculate through the reference comparators.
  if (kernel_ != simd::Kernel::kReference && pass_ == 0 &&
      total_passes_ > 0 && !audit_live_) {
    if (!soa_loaded_) {
      for (unsigned i = 0; i < slots_; ++i) regs_.set(i, lanes_[i]);
    }
    const simd::KernelStats st =
        simd::run_passes(regs_, slots_, plan_, mode_, kernel_);
    total_swaps_ += st.swaps;
    total_comparisons_ += total_pairs_;
    pending_comparisons_ += st.pending_pairs;
    pass_ = total_passes_;
    // The lane registers now hold the sorted state; lanes_ refreshes
    // lazily on the next lanes()/winner() access, and the grant path
    // reads winner_id()/block_ids() off the registers directly.
    soa_loaded_ = true;
    return;
  }
  while (!done()) step();
}

void ShuffleNetwork::reset() { pass_ = 0; }

AttrWord tournament_max(std::span<const AttrWord> words, ComparisonMode mode,
                        unsigned* cmp_count) {
  assert(!words.empty());
  unsigned cmps = 0;
  AttrWord best = words[0];
  for (std::size_t i = 1; i < words.size(); ++i) {
    best = order(best, words[i], mode).winner;
    ++cmps;
  }
  if (cmp_count) *cmp_count = cmps;
  return best;
}

}  // namespace ss::hw
