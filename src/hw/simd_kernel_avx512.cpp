// simd_kernel_avx512.cpp — the 32-lane AVX-512BW whole-plan kernel.
//
// Compiled with -mavx512f/-mavx512bw in its own translation unit;
// callers reach it only through simd::run_plan and simd::replace_dirty
// after the runtime CPU check, so a host without AVX-512 never executes a
// byte of this file.  simd::fit() hands it only all-butterfly 32-slot
// plans.
//
// At 32 slots the entire lane file fits ONE zmm register per field, which
// removes the two structural costs the AVX2 kernel pays:
//   * partner materialization collapses to a single vpermw with the
//     lane^stride index vector — any butterfly stride, including 16,
//     in one shuffle instead of per-stride shufflelo/epi32/permute4x64
//     sequences and a cross-vector special case;
//   * every cascade rule evaluates straight into a __mmask32, so the
//     verdict accumulation is scalar k-mask arithmetic (and/andn/or on
//     32-bit masks) rather than 256-bit blends, and the pair-canonical
//     a_wins / tie / swap algebra runs on plain 32-bit integers.
// The decision semantics are bit-identical to hw::decide() and to the
// AVX2 kernel — same cascade order, same Serial<16> antipode tie-break,
// same duplicate-id full-tie handling (see run_plan_avx2's commentary;
// the differential campaigns referee both against the scalar oracle).
#include "hw/simd_kernel.hpp"

#if defined(SS_HAVE_AVX512)

#include <immintrin.h>

#include <array>
#include <bit>

namespace ss::hw::simd::detail {
namespace {

enum Field { kDl, kNu, kDe, kAr, kId, kPd, kFields };

// Wrap-aware 16-bit less-than per lane, lower-raw-wins at the antipode —
// the mask twin of Serial<16>::operator<.
inline __mmask32 serial_less16(__m512i a, __m512i b) {
  const __m512i d = _mm512_sub_epi16(b, a);
  const __m512i msb = _mm512_set1_epi16(static_cast<short>(0x8000u));
  const __mmask32 lower =
      _mm512_cmpgt_epi16_mask(d, _mm512_setzero_si512());  // d in [1, 7FFF]
  const __mmask32 anti =
      _mm512_cmpeq_epi16_mask(d, msb) & _mm512_testn_epi16_mask(a, msb);
  return lower | anti;
}

// Verdict `v` overrides the accumulated verdict where guard `g` holds.
inline std::uint32_t sel(std::uint32_t aw, std::uint32_t v, std::uint32_t g) {
  return (aw & ~g) | (v & g);
}

// Which fields mode M's cascade actually READS (plus the FCFS floor's id
// and arrival, common to every mode).  Pendingness rides only when some
// lane might be idle — see run_plan_impl.
constexpr std::array<bool, kFields> rides_for(ComparisonMode m,
                                              bool all_pend) {
  std::array<bool, kFields> r{};
  r[kId] = r[kAr] = true;
  switch (m) {
    case ComparisonMode::kDwcsFull:
      r[kDl] = r[kNu] = r[kDe] = true;
      break;
    case ComparisonMode::kTagOnly:
      r[kDl] = true;
      break;
    case ComparisonMode::kStatic:
      r[kDe] = true;
      break;
  }
  r[kPd] = !all_pend;
  return r;
}

// The full Table-2 cascade, lowest-priority rule first, every rule one
// vector compare into a k-mask.  Lane i computes "self beats partner".
// `pa`/`pb` are the per-lane pending masks of self/partner, precomputed
// by the caller (all-ones when every lane pends, making the override a
// no-op).  M is a template parameter so each instantiation only
// references the partner fields its rides_for set materializes.
template <ComparisonMode M>
inline std::uint32_t cascade(const __m512i s[kFields],
                             const __m512i p[kFields], std::uint32_t pa,
                             std::uint32_t pb) {
  // FCFS floor: id tie-break (self.id <= partner.id), then distinct
  // arrivals.
  std::uint32_t aw = ~static_cast<std::uint32_t>(
      _mm512_cmpgt_epi16_mask(s[kId], p[kId]));
  aw = sel(aw, serial_less16(s[kAr], p[kAr]),
           _mm512_cmpneq_epi16_mask(s[kAr], p[kAr]));
  if constexpr (M == ComparisonMode::kDwcsFull) {
    // Rule 4: lowest numerator (loss fields <= 255, signed cmp ok).
    aw = sel(aw, _mm512_cmpgt_epi16_mask(p[kNu], s[kNu]),
             _mm512_cmpneq_epi16_mask(s[kNu], p[kNu]));
    // Rule 2: cross-multiplied window constraints (products to 65025,
    // unsigned compare).
    const __m512i lhs = _mm512_mullo_epi16(s[kNu], p[kDe]);
    const __m512i rhs = _mm512_mullo_epi16(p[kNu], s[kDe]);
    aw = sel(aw, _mm512_cmplt_epu16_mask(lhs, rhs),
             _mm512_cmpneq_epi16_mask(lhs, rhs));
    // Rule 3: both numerators zero — highest denominator.
    const std::uint32_t both_zero =
        _mm512_testn_epi16_mask(s[kNu], s[kNu]) &
        _mm512_testn_epi16_mask(p[kNu], p[kNu]);
    aw = sel(aw, _mm512_cmpgt_epi16_mask(s[kDe], p[kDe]),
             both_zero & _mm512_cmpneq_epi16_mask(s[kDe], p[kDe]));
    // Rule 1: earliest deadline.
    aw = sel(aw, serial_less16(s[kDl], p[kDl]),
             _mm512_cmpneq_epi16_mask(s[kDl], p[kDl]));
  } else if constexpr (M == ComparisonMode::kTagOnly) {
    aw = sel(aw, serial_less16(s[kDl], p[kDl]),
             _mm512_cmpneq_epi16_mask(s[kDl], p[kDl]));
  } else {
    aw = sel(aw, _mm512_cmpgt_epi16_mask(s[kDe], p[kDe]),
             _mm512_cmpneq_epi16_mask(s[kDe], p[kDe]));
  }
  // Pending-only rule overrides everything where exactly one side pends.
  return sel(aw, pa, pa ^ pb);
}

// Lane j holds j.
inline __m512i lane_iota() {
  return _mm512_set_epi16(31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20,
                          19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7,
                          6, 5, 4, 3, 2, 1, 0);
}

// Lane-index bits where (lane & stride) != 0 — the pair's upper lane.
inline std::uint32_t hi_lane_bits(unsigned stride) {
  switch (stride) {
    case 1: return 0xAAAAAAAAu;
    case 2: return 0xCCCCCCCCu;
    case 4: return 0xF0F0F0F0u;
    case 8: return 0xFF00FF00u;
    default: return 0xFFFF0000u;  // stride 16
  }
}

// Bit i of the result is bit i^stride of m — the mask-domain twin of the
// vpermw partner shuffle.
inline std::uint32_t mask_partner(std::uint32_t m, unsigned stride,
                                  std::uint32_t hi) {
  return ((m & hi) >> stride) | ((m & ~hi) << stride);
}

// The pass loop only moves fields mode M's cascade actually READS;
// every other field is pure payload that rides a tracked lane
// permutation and is gathered once at the end — the same trick the
// hardware plays by circulating only comparator inputs through the
// decision blocks.  Pendingness joins the payload set in the common
// saturated case (every lane backlogged, AllPend): all-ones lanes are
// invariant under any permutation and the pending-only override is a
// no-op, so the pend vector neither permutes, blends, nor gathers.
// Both knobs are template parameters: each of the six instantiations is
// straight-line vector code with the dead fields compiled out.  That
// holds only because every per-field loop is fully unrolled: rolled (GCC
// at -O2), kRides is read from memory per field and self[]/partner[]
// round-trip through the stack on every pass instead of staying in zmm
// registers.
template <ComparisonMode M, bool AllPend>
KernelStats run_plan_impl(std::uint16_t* const fields[kFields],
                          __m512i self[kFields],
                          std::span<const PassPlan> plan) {
  constexpr std::array<bool, kFields> kRides = rides_for(M, AllPend);
  // kDwcsFull reads every attribute, so only non-DWCS modes carry
  // payload (AllPend excludes pend from both sets entirely).
  constexpr bool kAnyPayload = M != ComparisonMode::kDwcsFull;

  // Partner-lane permutation vectors (lane ^ stride) for the 5 butterfly
  // strides, hoisted out of the pass loop.
  const __m512i iota = lane_iota();
  __m512i pidx_by_log[5];
#pragma GCC unroll 5
  for (unsigned l = 0; l < 5; ++l) {
    pidx_by_log[l] = _mm512_xor_si512(
        iota, _mm512_set1_epi16(static_cast<short>(1u << l)));
  }

  // perm[j] = the load-time lane whose word now sits in lane j.
  __m512i perm = iota;

  std::uint64_t swaps = 0;
  std::uint64_t pend_pairs = 0;
  for (const PassPlan& pp : plan) {
    const unsigned stride = pp.stride;
    const std::uint32_t hi = hi_lane_bits(stride);
    // Registered comparator inputs: one vpermw per riding field
    // materializes the partner lane for ANY butterfly stride.
    const __m512i pidx =
        pidx_by_log[std::countr_zero(stride)];
    __m512i partner[kFields];
#pragma GCC unroll kFields
    for (unsigned f = 0; f < kFields; ++f) {
      if (kRides[f]) partner[f] = _mm512_permutexvar_epi16(pidx, self[f]);
    }
    std::uint32_t pa = 0xFFFFFFFFu, pb = 0xFFFFFFFFu;
    if constexpr (!AllPend) {
      pa = _mm512_test_epi16_mask(self[kPd], self[kPd]);
      pb = _mm512_test_epi16_mask(partner[kPd], partner[kPd]);
    }
    // Per-lane verdict "self beats partner"; the pair's canonical a_wins
    // (a = lower lane) is (sw ^ hi) | tie — see run_plan_avx2 for the
    // antisymmetry/duplicate-id derivation, identical here.
    const std::uint32_t sw = cascade<M>(self, partner, pa, pb);
    const std::uint32_t tie = sw & mask_partner(sw, stride, hi);
    const std::uint32_t aw = (sw ^ hi) | tie;
    const std::uint32_t desc = pp.desc_bits;
    // swap iff a_wins XNOR descending (winner to the lower lane; a
    // descending comparator routes the winner up instead).  Both lanes of
    // a swapped pair raise a bit, so the popcounts halve to pair counts.
    const std::uint32_t swap = ~(aw ^ desc);
    swaps += std::popcount(swap) / 2u;
    pend_pairs += std::popcount(pa | mask_partner(pa, stride, hi)) / 2u;
    const auto k = static_cast<__mmask32>(swap);
#pragma GCC unroll kFields
    for (unsigned f = 0; f < kFields; ++f) {
      if (kRides[f]) {
        self[f] = _mm512_mask_blend_epi16(k, self[f], partner[f]);
      }
    }
    if constexpr (kAnyPayload) {
      perm = _mm512_mask_blend_epi16(
          k, perm, _mm512_permutexvar_epi16(pidx, perm));
    }
  }

  // Payload fields land with ONE gather through the final permutation
  // (all-pending pend lanes are all-ones: nothing to move, the store
  // rewrites the unchanged words).
#pragma GCC unroll kFields
  for (unsigned f = 0; f < kFields; ++f) {
    if (!kRides[f] && !(f == kPd && AllPend)) {
      self[f] = _mm512_permutexvar_epi16(perm, self[f]);
    }
    _mm512_storeu_si512(fields[f], self[f]);
  }
  return {swaps, pend_pairs};
}

// Lane-wise max of a and b folded over one stride: where bit `stride` of
// the lane index is clear the lane takes max(a[i], a[i + stride]), where
// it is set max(b[i - stride], b[i]).  Two rows share one register.
inline __m512i fold_max(__m512i a, __m512i b, unsigned stride,
                        std::uint32_t hi) {
  const __m512i iota = lane_iota();
  const __m512i s = _mm512_set1_epi16(static_cast<short>(stride));
  // Index into (a, b): a[i + stride] below, b[i - stride] (32 + i -
  // stride) above.
  const __m512i idx = _mm512_mask_add_epi16(
      _mm512_add_epi16(iota, s), hi, iota,
      _mm512_sub_epi16(_mm512_set1_epi16(32), s));
  return _mm512_max_epi16(_mm512_mask_blend_epi16(hi, a, b),
                          _mm512_permutex2var_epi16(a, idx, b));
}

// True iff every deadline and every arrival stamp of the two lane files
// lies in one serial half-window: with o = int16(v - v[0]) per row,
// max(o) - min(o) < 2^15.  Inside it Serial<16> order is the integer
// order of o, so the tag-only cascade is a strict total order.  The four
// extrema (max o and max ~o = -min o - 1, per row) fold into the 8-lane
// groups of one register; everything stays in zmm and k-mask registers.
inline bool half_window(__m512i dl_a, __m512i dl_b, __m512i ar_a,
                        __m512i ar_b) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i ones = _mm512_set1_epi16(-1);
  const __m512i dl_ref = _mm512_permutexvar_epi16(zero, dl_a);
  const __m512i ar_ref = _mm512_permutexvar_epi16(zero, ar_a);
  const __m512i da = _mm512_sub_epi16(dl_a, dl_ref);
  const __m512i db = _mm512_sub_epi16(dl_b, dl_ref);
  const __m512i aa = _mm512_sub_epi16(ar_a, ar_ref);
  const __m512i ab = _mm512_sub_epi16(ar_b, ar_ref);
  const __m512i dl_max = _mm512_max_epi16(da, db);
  const __m512i dl_nmin = _mm512_xor_si512(_mm512_min_epi16(da, db), ones);
  const __m512i ar_max = _mm512_max_epi16(aa, ab);
  const __m512i ar_nmin = _mm512_xor_si512(_mm512_min_epi16(aa, ab), ones);
  // Lanes 0-7: deadline max, 8-15: deadline ~min, 16-23: arrival max,
  // 24-31: arrival ~min.
  __m512i z = fold_max(fold_max(dl_max, ar_max, 16, 0xFFFF0000u),
                       fold_max(dl_nmin, ar_nmin, 16, 0xFFFF0000u), 8,
                       0xFF00FF00u);
  const __m512i iota = lane_iota();
#pragma GCC unroll 3
  for (unsigned stride = 4; stride > 0; stride >>= 1) {
    z = _mm512_max_epi16(
        z, _mm512_permutexvar_epi16(
               _mm512_xor_si512(iota,
                                _mm512_set1_epi16(static_cast<short>(stride))),
               z));
  }
  // max(o) + max(~o) = max(o) - min(o) - 1, saturated: < 2^15 - 1 iff the
  // spread is under 2^15.
  const __m512i spread = _mm512_adds_epi16(
      z, _mm512_permutexvar_epi16(
             _mm512_xor_si512(iota, _mm512_set1_epi16(8)), z));
  const std::uint32_t ok =
      _mm512_cmplt_epi16_mask(spread, _mm512_set1_epi16(0x7FFF));
  constexpr std::uint32_t kRows = 1u | (1u << 16);
  return (ok & kRows) == kRows;
}

}  // namespace

// Block reuse (DESIGN.md §12).  Inside one serial half-window with unique
// ids the tag-only cascade is a strict total order, so a sorting network
// returns the unique sorted permutation whatever the LOAD order.  The
// previous sort therefore still orders every clean word, and the new
// sort is that order with each dirty word moved to its rank among ALL
// current words — the clean ones and the other dirty slots' NEW words,
// never their stale ones (remove every dirty lane first, then insert).
// One broadcast cascade compare and a popcount rank each dirty word; the
// rank list becomes one gather index and one vpermw per field reads the
// result straight off the bus rows.
bool replace_dirty_avx512(LaneRegs& sorted, const LaneRegs& bus,
                          std::uint32_t dirty) {
  if (static_cast<unsigned>(std::popcount(dirty)) > kMaxReplaced) {
    return false;
  }
  const __m512i iota = lane_iota();
  // Row s of the bus carries id s, so a lane's id is its bus row.
  if (_mm512_cmpneq_epi16_mask(_mm512_loadu_si512(bus.id), iota) != 0) {
    return false;
  }
  const __m512i dl_bus = _mm512_loadu_si512(bus.deadline);
  const __m512i ar_bus = _mm512_loadu_si512(bus.arrival);
  if (!half_window(_mm512_loadu_si512(sorted.deadline), dl_bus,
                   _mm512_loadu_si512(sorted.arrival), ar_bus)) {
    return false;
  }

  // Remove: the lane each dirty slot held in the previous sort.  Every
  // clean slot's unchanged row names itself once, so one lane per dirty
  // slot makes the old id row a permutation.
  const __m512i old_id = _mm512_loadu_si512(sorted.id);
  std::uint32_t dirty_lanes = 0;
  for (std::uint32_t m = dirty; m != 0; m &= m - 1) {
    const std::uint32_t at = _mm512_cmpeq_epi16_mask(
        old_id, _mm512_set1_epi16(static_cast<short>(std::countr_zero(m))));
    if (std::popcount(at) != 1) return false;
    dirty_lanes |= at;
  }

  // The current words in the previous sort's lane order: clean lanes are
  // unchanged, dirty lanes hold their slot's new word.
  __m512i cur[kFields] = {};
  cur[kDl] = _mm512_permutexvar_epi16(old_id, dl_bus);
  cur[kAr] = _mm512_permutexvar_epi16(old_id, ar_bus);
  cur[kId] = old_id;

  // Insert: a dirty word's rank is the number of other current words
  // that beat it.  `pos` ascends with the lane index.
  unsigned pos[kMaxReplaced] = {};
  unsigned rank[kMaxReplaced] = {};
  unsigned k = 0;
  for (std::uint32_t m = dirty_lanes; m != 0; m &= m - 1, ++k) {
    const auto p = static_cast<unsigned>(std::countr_zero(m));
    const unsigned s = sorted.id[p];
    __m512i w[kFields] = {};
    w[kDl] = _mm512_set1_epi16(static_cast<short>(bus.deadline[s]));
    w[kAr] = _mm512_set1_epi16(static_cast<short>(bus.arrival[s]));
    w[kId] = _mm512_set1_epi16(static_cast<short>(s));
    const std::uint32_t beats =
        cascade<ComparisonMode::kTagOnly>(cur, w, ~0u, ~0u) & ~(1u << p);
    pos[k] = p;
    rank[k] = static_cast<unsigned>(std::popcount(beats));
  }

  // Gather index over `cur`: output lane j holds a dirty word when j is
  // its rank, else the t-th clean lane, t = j minus the ranks below j.
  // The t-th clean lane is t plus the dirty lanes p_i below it, i.e.
  // those with p_i - i <= t.
  const __m512i one = _mm512_set1_epi16(1);
  __m512i t = iota;
  for (unsigned i = 0; i < k; ++i) {
    t = _mm512_mask_sub_epi16(
        t,
        _mm512_cmpgt_epu16_mask(iota,
                                _mm512_set1_epi16(static_cast<short>(rank[i]))),
        t, one);
  }
  __m512i src = t;
  for (unsigned i = 0; i < k; ++i) {
    src = _mm512_mask_add_epi16(
        src,
        _mm512_cmpge_epu16_mask(
            t, _mm512_set1_epi16(static_cast<short>(pos[i] - i))),
        src, one);
  }
  for (unsigned i = 0; i < k; ++i) {
    src = _mm512_mask_set1_epi16(src, 1u << rank[i],
                                 static_cast<short>(pos[i]));
  }

  // Compose with the old order into bus rows and permute every field
  // once.  The id row is the composed index itself; pend stays all-ones.
  const __m512i slot = _mm512_permutexvar_epi16(src, old_id);
  _mm512_storeu_si512(sorted.id, slot);
  _mm512_storeu_si512(sorted.deadline,
                      _mm512_permutexvar_epi16(slot, dl_bus));
  _mm512_storeu_si512(sorted.arrival, _mm512_permutexvar_epi16(slot, ar_bus));
  _mm512_storeu_si512(
      sorted.loss_num,
      _mm512_permutexvar_epi16(slot, _mm512_loadu_si512(bus.loss_num)));
  _mm512_storeu_si512(
      sorted.loss_den,
      _mm512_permutexvar_epi16(slot, _mm512_loadu_si512(bus.loss_den)));
  return true;
}

KernelStats run_plan_avx512(LaneRegs& r, std::span<const PassPlan> plan,
                            ComparisonMode mode) {
  std::uint16_t* const fields[kFields] = {r.deadline, r.loss_num, r.loss_den,
                                          r.arrival,  r.id,       r.pend};

  // Load the whole lane file once; every pass runs on registers.
  __m512i self[kFields];
#pragma GCC unroll kFields
  for (unsigned f = 0; f < kFields; ++f) {
    self[f] = _mm512_loadu_si512(fields[f]);
  }
  const bool all_pend =
      _mm512_test_epi16_mask(self[kPd], self[kPd]) == 0xFFFFFFFFu;

  switch (mode) {
    case ComparisonMode::kDwcsFull:
      return all_pend ? run_plan_impl<ComparisonMode::kDwcsFull, true>(
                            fields, self, plan)
                      : run_plan_impl<ComparisonMode::kDwcsFull, false>(
                            fields, self, plan);
    case ComparisonMode::kTagOnly:
      return all_pend ? run_plan_impl<ComparisonMode::kTagOnly, true>(
                            fields, self, plan)
                      : run_plan_impl<ComparisonMode::kTagOnly, false>(
                            fields, self, plan);
    case ComparisonMode::kStatic:
      return all_pend ? run_plan_impl<ComparisonMode::kStatic, true>(
                            fields, self, plan)
                      : run_plan_impl<ComparisonMode::kStatic, false>(
                            fields, self, plan);
  }
  return {};
}

}  // namespace ss::hw::simd::detail

#endif  // SS_HAVE_AVX512
