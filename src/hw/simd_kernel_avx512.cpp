// simd_kernel_avx512.cpp — the 32-lane AVX-512BW whole-plan kernel.
//
// Compiled with -mavx512f/-mavx512bw in its own translation unit;
// callers reach it only through simd::run_plan after the runtime CPU
// check, so a host without AVX-512 never executes a byte of this file.
// simd::fit() hands it only all-butterfly 32-slot plans.
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
  const __m512i iota = _mm512_set_epi16(
      31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,
      13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
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

}  // namespace

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
