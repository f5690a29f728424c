// simd_kernel_avx2.cpp — the 16-lane AVX2 whole-plan kernel.
//
// Compiled with -mavx2 in its own translation unit; callers reach it only
// through simd::run_plan after the runtime CPU check, so a non-AVX2 host
// never executes a byte of this file.
//
// A butterfly pass over n slots (n = 16 or 32) runs as one or two
// 16-lane vector bursts.  Each field of the pair's operands is
// materialized pair-symmetrically: A = the lower lane's value on BOTH
// lanes of the pair, B = the upper lane's value on both, so the computed
// a_wins mask is identical across a pair and the swap blend routes
// winner-to-lower-lane exactly like the scalar compare-exchange.  The
// Table-2 cascade is evaluated lowest-priority rule first, each
// higher-priority rule blending its verdict over the accumulator where
// its guard mask holds — the branch-free dual of the scalar
// priority-encoded mux in decision_block_rtl.cpp.
//
// run_plan_avx2 is the one entry point.  simd::fit() hands it only
// all-butterfly plans (bitonic, perfect shuffle) over 16 or 32 slots, and
// it runs the whole plan register-resident: the 6 field vectors are
// loaded once, all passes run in ymm registers, and the lanes are stored
// once at the end.  Swap/pending tallies accumulate in vector counters
// and reduce once.  This mirrors the paper's chip, where a recirculating
// stage never writes attributes back to the register file between passes.
#include "hw/simd_kernel.hpp"

#if defined(SS_HAVE_AVX2)

#include <immintrin.h>

namespace ss::hw::simd::detail {
namespace {

// Partner lane i^stride within one 16-lane vector.
inline __m256i partner_shuffle(__m256i v, unsigned stride) {
  switch (stride) {
    case 1:
      return _mm256_shufflehi_epi16(_mm256_shufflelo_epi16(v, 0xB1), 0xB1);
    case 2:
      return _mm256_shuffle_epi32(v, 0xB1);
    case 4:
      return _mm256_shuffle_epi32(v, 0x4E);
    case 8:
      return _mm256_permute4x64_epi64(v, 0x4E);
    default:
      return v;
  }
}

// Lane mask: 0xFFFF where (lane_index & stride) != 0 (the pair's upper
// lane).  The pattern repeats every 16 lanes for stride < 16, so each
// mask is a broadcast constant — no runtime construction.
inline __m256i hi_lane_mask(unsigned stride) {
  switch (stride) {
    case 1:
      return _mm256_set1_epi32(static_cast<int>(0xFFFF0000u));
    case 2:
      return _mm256_set1_epi64x(
          static_cast<long long>(0xFFFFFFFF00000000ull));
    case 4:
      return _mm256_set_epi64x(-1, 0, -1, 0);
    default:  // stride 8
      return _mm256_set_epi64x(-1, -1, 0, 0);
  }
}

inline __m256i blend(__m256i f, __m256i t, __m256i mask) {
  return _mm256_blendv_epi8(f, t, mask);
}

inline __m256i neq16(__m256i a, __m256i b) {
  return _mm256_xor_si256(_mm256_cmpeq_epi16(a, b),
                          _mm256_set1_epi8(char(-1)));
}

// Wrap-aware 16-bit less-than per lane, lower-raw-wins at the antipode —
// the vector twin of Serial<16>::operator<.
inline __m256i serial_less16(__m256i a, __m256i b) {
  const __m256i d = _mm256_sub_epi16(b, a);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i msb = _mm256_set1_epi16(static_cast<short>(0x8000u));
  const __m256i lower = _mm256_cmpgt_epi16(d, zero);  // d in [1, 0x7FFF]
  const __m256i anti = _mm256_and_si256(
      _mm256_cmpeq_epi16(d, msb),
      _mm256_cmpeq_epi16(_mm256_and_si256(a, msb), zero));
  return _mm256_or_si256(lower, anti);
}

// Unsigned 16-bit less-than (sign-bias then signed compare); used for the
// cross-multiplied window constraints, whose products reach 65025.
inline __m256i ult16(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi16(static_cast<short>(0x8000u));
  return _mm256_cmpgt_epi16(_mm256_xor_si256(b, bias),
                            _mm256_xor_si256(a, bias));
}

enum Field { kDl, kNu, kDe, kAr, kId, kPd, kFields };

inline __m256i cascade(const __m256i a[kFields], const __m256i b[kFields],
                       ComparisonMode mode) {
  const __m256i ones = _mm256_set1_epi8(char(-1));
  const __m256i zero = _mm256_setzero_si256();
  // FCFS floor: id tie-break (a.id <= b.id), then distinct arrivals.
  __m256i aw = _mm256_xor_si256(_mm256_cmpgt_epi16(a[kId], b[kId]), ones);
  aw = blend(aw, serial_less16(a[kAr], b[kAr]), neq16(a[kAr], b[kAr]));
  switch (mode) {
    case ComparisonMode::kDwcsFull: {
      // Rule 4: lowest numerator (loss fields are <= 255, signed cmp ok).
      aw = blend(aw, _mm256_cmpgt_epi16(b[kNu], a[kNu]),
                 neq16(a[kNu], b[kNu]));
      // Rule 2: cross-multiplied window constraints.
      const __m256i lhs = _mm256_mullo_epi16(a[kNu], b[kDe]);
      const __m256i rhs = _mm256_mullo_epi16(b[kNu], a[kDe]);
      aw = blend(aw, ult16(lhs, rhs), neq16(lhs, rhs));
      // Rule 3: both numerators zero — highest denominator.
      const __m256i both_zero =
          _mm256_and_si256(_mm256_cmpeq_epi16(a[kNu], zero),
                           _mm256_cmpeq_epi16(b[kNu], zero));
      aw = blend(aw, _mm256_cmpgt_epi16(a[kDe], b[kDe]),
                 _mm256_and_si256(both_zero, neq16(a[kDe], b[kDe])));
      // Rule 1: earliest deadline.
      aw = blend(aw, serial_less16(a[kDl], b[kDl]), neq16(a[kDl], b[kDl]));
      break;
    }
    case ComparisonMode::kTagOnly:
      aw = blend(aw, serial_less16(a[kDl], b[kDl]), neq16(a[kDl], b[kDl]));
      break;
    case ComparisonMode::kStatic:
      aw = blend(aw, _mm256_cmpgt_epi16(a[kDe], b[kDe]),
                 neq16(a[kDe], b[kDe]));
      break;
  }
  // Pending-only rule overrides everything where exactly one side pends.
  aw = blend(aw, a[kPd], _mm256_xor_si256(a[kPd], b[kPd]));
  return aw;
}

// Horizontal sum of 8 x i32.
inline std::uint32_t hsum_epi32(__m256i x) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(x),
                            _mm256_extracti128_si256(x, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
}

}  // namespace

KernelStats run_plan_avx2(LaneRegs& r, unsigned n,
                          std::span<const PassPlan> plan,
                          ComparisonMode mode) {
  assert(n == 16 || n == 32);
  const unsigned nv = n / 16;
  std::uint16_t* const fields[kFields] = {r.deadline, r.loss_num, r.loss_den,
                                          r.arrival,  r.id,       r.pend};
  const __m256i ones = _mm256_set1_epi8(char(-1));
  const __m256i zero = _mm256_setzero_si256();

  // Load the whole lane file once; every pass below runs on registers.
  __m256i self[2][kFields];
  for (unsigned f = 0; f < kFields; ++f) {
    for (unsigned v = 0; v < nv; ++v) {
      self[v][f] = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(fields[f] + 16 * v));
    }
  }

  // Per-lane tallies: each swapped pair raises its two lanes, each pair
  // with a pending operand likewise — the final sums halve back to pair
  // counts.  Subtracting a 0/0xFFFF mask increments saturated lanes
  // (0xFFFF == -1 in epi16); bounded by the pass count, far from wrap.
  __m256i swap_acc = zero;
  __m256i pend_acc = zero;

  for (const PassPlan& pp : plan) {
    const unsigned stride = pp.stride;
    // Registered comparator inputs: capture every partner before writing
    // any result (stride 16 pairs span both vectors).
    __m256i partner[2][kFields];
    __m256i hi[2];
    if (stride == 16) {
      for (unsigned f = 0; f < kFields; ++f) {
        partner[0][f] = self[1][f];
        partner[1][f] = self[0][f];
      }
      hi[0] = zero;
      hi[1] = ones;
    } else {
      const __m256i m = hi_lane_mask(stride);
      for (unsigned v = 0; v < nv; ++v) {
        for (unsigned f = 0; f < kFields; ++f) {
          partner[v][f] = partner_shuffle(self[v][f], stride);
        }
        hi[v] = m;
      }
    }
    // Per-lane verdict "self beats partner".  Every cascade rule's guard
    // is symmetric and its verdict flips under operand swap, so
    // cascade(b, a) == !cascade(a, b) — EXCEPT on a full tie (equal ids
    // and every guard false; the chip's lanes are an id permutation, but
    // the public load(span) path admits duplicates), where BOTH lanes of
    // a pair report sw = 1 (and both-0 is impossible: the id floor always
    // crowns at least one side).  The pair's canonical a_wins (a = lower
    // lane) is therefore (sw ^ hi) | (sw & partner's sw).
    __m256i sw[2];
    for (unsigned v = 0; v < nv; ++v) {
      sw[v] = cascade(self[v], partner[v], mode);
    }
    __m256i tie[2];
    if (stride == 16) {
      tie[0] = _mm256_and_si256(sw[0], sw[1]);
      tie[1] = tie[0];
    } else {
      for (unsigned v = 0; v < nv; ++v) {
        tie[v] = _mm256_and_si256(sw[v], partner_shuffle(sw[v], stride));
      }
    }
    for (unsigned v = 0; v < nv; ++v) {
      const __m256i aw =
          _mm256_or_si256(_mm256_xor_si256(sw[v], hi[v]), tie[v]);
      const __m256i desc = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(pp.desc + 16 * v));
      // swap iff a_wins XNOR descending (winner to the lower lane; a
      // descending comparator routes the winner up instead).
      const __m256i swap =
          _mm256_xor_si256(_mm256_xor_si256(aw, desc), ones);
      swap_acc = _mm256_sub_epi16(swap_acc, swap);
      pend_acc = _mm256_sub_epi16(
          pend_acc, _mm256_or_si256(self[v][kPd], partner[v][kPd]));
      for (unsigned f = 0; f < kFields; ++f) {
        self[v][f] = blend(self[v][f], partner[v][f], swap);
      }
    }
  }

  for (unsigned f = 0; f < kFields; ++f) {
    for (unsigned v = 0; v < nv; ++v) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(fields[f] + 16 * v),
                         self[v][f]);
    }
  }
  const __m256i one16 = _mm256_set1_epi16(1);
  KernelStats st;
  st.swaps = hsum_epi32(_mm256_madd_epi16(swap_acc, one16)) / 2;
  st.pending_pairs = hsum_epi32(_mm256_madd_epi16(pend_acc, one16)) / 2;
  return st;
}

}  // namespace ss::hw::simd::detail

#endif  // SS_HAVE_AVX2
