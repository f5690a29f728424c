#include "hw/shuffle.hpp"

#include <array>
#include <bit>
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

namespace {

PairSpec pair_of(unsigned lo, unsigned hi, bool descending) {
  return {static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi),
          static_cast<std::uint16_t>(descending ? 1 : 0)};
}

// Mark a pass the vector kernels can run in registers: a butterfly (one
// power-of-two stride, pair-symmetric direction lanes), the
// i <-> i^stride shape every perfect-shuffle and bitonic pass has.
void mark_butterfly(simd::PassPlan& pp, unsigned n) {
  const auto& pairs = pp.pairs;
  if (pairs.size() != n / 2 || pairs.empty()) return;
  const unsigned stride = pairs[0].lo ^ pairs[0].hi;
  if (!is_pow2(stride)) return;
  for (const PairSpec& p : pairs) {
    if ((p.lo ^ p.hi) != stride || (p.lo & stride) != 0) return;
  }
  pp.butterfly = true;
  pp.stride = stride;
  for (const PairSpec& p : pairs) {
    const std::uint16_t d = p.desc != 0 ? 0xFFFFu : 0u;
    pp.desc[p.lo] = d;
    pp.desc[p.hi] = d;
    if (p.desc != 0) pp.desc_bits |= (1u << p.lo) | (1u << p.hi);
  }
}

}  // namespace

ShuffleNetwork::ShuffleNetwork(unsigned slots, SortSchedule schedule,
                               ComparisonMode mode,
                               simd::KernelChoice kernel)
    : slots_(slots), mode_(mode) {
  assert(is_pow2(slots) && slots >= 2 && slots <= kMaxSlots);
  build_schedule(schedule);
  // kAuto defers to the process-wide SS_SIMD + CPU dispatch; an explicit
  // choice (tests, the bench's scalar baseline leg) is resolved directly.
  // Either way the kernel is fitted to this slot count and schedule once.
  kernel_ = simd::fit(kernel == simd::KernelChoice::kAuto
                          ? simd::default_kernel()
                          : simd::resolve(kernel),
                      slots_, plan_);
  sorts_ = schedule != SortSchedule::kPerfectShuffle;
  reusable_ = kernel_ == simd::Kernel::kAvx512 && sorts_ &&
              mode_ == ComparisonMode::kTagOnly;
}

void ShuffleNetwork::build_schedule(SortSchedule s) {
  const unsigned n = slots_;
  plan_.clear();
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
        auto& pairs = plan_.emplace_back().pairs;
        for (unsigned i = 0; i < n; ++i) {
          if ((i & bit) == 0) pairs.push_back(pair_of(i, i | bit, false));
        }
      }
      break;
    }
    case SortSchedule::kBitonic: {
      // Batcher's bitonic network.  `desc` flips the comparator so the
      // merged sequences interleave correctly; after all passes lane 0
      // holds the highest-priority stream.
      for (unsigned span = 2; span <= n; span <<= 1) {
        for (unsigned j = span >> 1; j > 0; j >>= 1) {
          auto& pairs = plan_.emplace_back().pairs;
          for (unsigned i = 0; i < n; ++i) {
            const unsigned l = i ^ j;
            if (l > i) pairs.push_back(pair_of(i, l, (i & span) != 0));
          }
        }
      }
      break;
    }
    case SortSchedule::kOddEven: {
      for (unsigned p = 0; p < n; ++p) {
        auto& pairs = plan_.emplace_back().pairs;
        for (unsigned i = (p % 2); i + 1 < n; i += 2) {
          pairs.push_back(pair_of(i, i + 1, false));
        }
      }
      break;
    }
  }
  total_pairs_ = 0;
  for (simd::PassPlan& pp : plan_) {
    mark_butterfly(pp, n);
    total_pairs_ += pp.pairs.size();
  }
  total_passes_ = static_cast<unsigned>(plan_.size());
}

void ShuffleNetwork::seal(std::uint32_t pending_mask) {
  const std::uint32_t full = 0xFFFFFFFFu >> (32 - slots_);
  all_pending_ = (pending_mask & full) == full;
  pending_lanes_ = static_cast<unsigned>(std::popcount(pending_mask & full));
  pass_ = 0;
  sorted_ = false;
}

void ShuffleNetwork::load(std::span<const AttrWord> words) {
  assert(words.size() == slots_);
  std::uint32_t pending = 0;
  for (unsigned i = 0; i < slots_; ++i) {
    regs_.set(i, words[i]);
    pending |= static_cast<std::uint32_t>(words[i].pending) << i;
  }
  seal(pending);
}

void ShuffleNetwork::load_lanes(const simd::LaneRegs& bus,
                                std::uint32_t pending_mask) {
  regs_ = bus;
  seal(pending_mask);
}

bool ShuffleNetwork::replace(const simd::LaneRegs& bus,
                             std::uint32_t pending_mask,
                             std::uint32_t dirty) {
  // The AVX-512 kernel is only fitted at 32 slots, so "every lane pends"
  // is a full 32-bit mask.
  if (!reusable_ || !sorted_ || audit_live_ || !all_pending_ ||
      pending_mask != 0xFFFFFFFFu ||
      !simd::replace_dirty(regs_, bus, dirty)) {
    return false;
  }
  // Every lane pends, so every comparison of the skipped passes has a
  // pending operand.
  total_comparisons_ += total_pairs_;
  pending_comparisons_ += total_pairs_;
  pass_ = total_passes_;
  ++reuses_;
  return true;
}

std::vector<AttrWord> ShuffleNetwork::lanes() const {
  std::vector<AttrWord> out(slots_);
  for (unsigned i = 0; i < slots_; ++i) out[i] = regs_.get(i);
  return out;
}

void ShuffleNetwork::block_ids(std::vector<SlotId>& out) const {
  if (sorts_ && done()) {
    out.insert(out.end(), regs_.id, regs_.id + pending_lanes_);
    return;
  }
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
}

unsigned ShuffleNetwork::run_reference(unsigned passes) {
  std::array<AttrWord, kMaxSlots> w;
  for (unsigned i = 0; i < slots_; ++i) w[i] = regs_.get(i);
  unsigned swaps = 0;
  for (unsigned k = 0; k < passes; ++k) {
    const auto& pairs = plan_[pass_].pairs;
    // Pending-comparison tally: O(1) on the all-backlogged fast path
    // (every pair qualifies), per-pair only in the mixed case, so an
    // unsampled decision at full contention pays nothing here.
    unsigned pending_pairs = 0;
    // All Decision blocks fire concurrently: read both operands of every
    // pair before writing any result, exactly like registered outputs.
    for (const PairSpec& p : pairs) {
      const AttrWord a = w[p.lo];
      const AttrWord b = w[p.hi];
      const DecisionResult r = decide(a, b, mode_);
      const bool a_wins = r.a_wins;
      if (audit_live_ && (a.pending || b.pending)) {
        const AttrWord& win = a_wins ? a : b;
        const AttrWord& lose = a_wins ? b : a;
        audit_->on_comparison(win.id, lose.id,
                              static_cast<std::uint8_t>(r.rule));
      }
      if (!all_pending_ && (a.pending || b.pending)) ++pending_pairs;
      const bool swap = p.desc != 0 ? a_wins : !a_wins;
      if (swap) {
        w[p.lo] = b;
        w[p.hi] = a;
        ++swaps;
      }
    }
    total_comparisons_ += pairs.size();
    pending_comparisons_ += all_pending_ ? pairs.size() : pending_pairs;
    ++pass_;
  }
  total_swaps_ += swaps;
  for (unsigned i = 0; i < slots_; ++i) regs_.set(i, w[i]);
  return swaps;
}

unsigned ShuffleNetwork::step() {
  assert(pass_ < total_passes_);
  sorted_ = false;
  return run_reference(1);
}

void ShuffleNetwork::run_all() {
  // Whole-decision fast path: evaluate every pass with the fitted vector
  // kernel.  Only taken when (a) a vector kernel was fitted, (b) the
  // decision starts from pass 0 (partial step()ed cycles keep scalar
  // semantics for the steering tests) and (c) no live audit hook — the
  // audit plane attributes a Rule to every pending comparison, which is
  // per-pair provenance the vector kernel does not produce; sampled
  // decisions therefore recirculate through the reference comparators,
  // on the same lane file.
  const bool whole = pass_ == 0;
  if (kernel_ != simd::Kernel::kReference && whole && !audit_live_) {
    const simd::KernelStats st =
        simd::run_plan(regs_, slots_, plan_, mode_, kernel_);
    total_swaps_ += st.swaps;
    total_comparisons_ += total_pairs_;
    pending_comparisons_ += st.pending_pairs;
    pass_ = total_passes_;
  } else {
    run_reference(total_passes_ - pass_);
  }
  sorted_ = whole && sorts_;
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
