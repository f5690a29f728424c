// simd_kernel.cpp — dispatch, lane-register plumbing and the portable
// branch-free SWAR fallback.  The AVX2 pass lives in simd_kernel_avx2.cpp
// (its own translation unit, compiled with -mavx2 only where the
// toolchain supports it, so nothing in THIS file can ever emit an AVX2
// instruction on a host that lacks it).
#include "hw/simd_kernel.hpp"

#include <cstdlib>
#include <cstring>

namespace ss::hw::simd {

#if defined(SS_HAVE_AVX2)
namespace detail {
// Implemented in simd_kernel_avx2.cpp.
bool run_plan_avx2(LaneRegs& regs, unsigned n, std::span<const PassPlan> plan,
                   ComparisonMode mode, KernelStats& st);
void run_pass_avx2(LaneRegs& regs, unsigned n, const PassPlan& plan,
                   ComparisonMode mode, KernelStats& st);
}  // namespace detail
#endif
#if defined(SS_HAVE_AVX512)
namespace detail {
// Implemented in simd_kernel_avx512.cpp.
bool run_plan_avx512(LaneRegs& regs, unsigned n,
                     std::span<const PassPlan> plan, ComparisonMode mode,
                     KernelStats& st);
}  // namespace detail
#endif

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kReference: return "reference";
    case Kernel::kSwar: return "swar";
    case Kernel::kAvx2: return "avx2";
    case Kernel::kAvx512: return "avx512";
  }
  return "?";
}

bool avx2_supported() {
#if defined(SS_HAVE_AVX2) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(SS_HAVE_AVX512) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

KernelChoice parse_choice(const char* value) {
  if (value == nullptr || value[0] == '\0') return KernelChoice::kAuto;
  // Tiny case-insensitive match; SS_SIMD values are short tokens.
  char buf[16] = {};
  for (unsigned i = 0; i < sizeof(buf) - 1 && value[i] != '\0'; ++i) {
    const char c = value[i];
    buf[i] = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  const auto is = [&](const char* s) { return std::strcmp(buf, s) == 0; };
  if (is("OFF") || is("0") || is("SWAR") || is("SCALAR")) {
    return KernelChoice::kSwar;
  }
  if (is("REF") || is("REFERENCE")) return KernelChoice::kReference;
  if (is("ON") || is("1") || is("AVX2")) return KernelChoice::kAvx2;
  if (is("AVX512")) return KernelChoice::kAvx512;
  return KernelChoice::kAuto;  // unknown tokens keep the safe default
}

Kernel resolve(KernelChoice c) {
  switch (c) {
    case KernelChoice::kReference: return Kernel::kReference;
    case KernelChoice::kSwar: return Kernel::kSwar;
    case KernelChoice::kAvx2:
      // An explicit AVX2 request never upgrades: the differential legs
      // pin the exact kernel they compare.
      return avx2_supported() ? Kernel::kAvx2 : Kernel::kSwar;
    case KernelChoice::kAvx512:
    case KernelChoice::kAuto:
      if (avx512_supported()) return Kernel::kAvx512;
      return avx2_supported() ? Kernel::kAvx2 : Kernel::kSwar;
  }
  return Kernel::kSwar;
}

Kernel default_kernel() {
  static const Kernel k = resolve(parse_choice(std::getenv("SS_SIMD")));
  return k;
}

namespace {

// c in {0,1}: t if c else f, no branch.
inline std::uint32_t sel_bit(std::uint32_t c, std::uint32_t t,
                             std::uint32_t f) {
  return f ^ ((t ^ f) & (0u - c));
}

// Branch-free Serial<16> strict less-than, including the lower-raw-wins
// antipode tie-break (see util/serial.hpp).
inline std::uint32_t serial16_less_bf(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t d = (b - a) & 0xFFFFu;
  const auto lower = static_cast<std::uint32_t>(d - 1u < 0x7FFFu);
  const std::uint32_t anti = static_cast<std::uint32_t>(d == 0x8000u) &
                             static_cast<std::uint32_t>((a & 0x8000u) == 0u);
  return lower | anti;
}

// The full Table-2 cascade as mask selects, lowest-priority rule first:
// each higher-priority rule overrides the accumulated verdict where its
// guard holds.  Bit-identical to hw::decide(a, b, mode).a_wins.
inline std::uint32_t decide_bf(std::uint32_t dl_a, std::uint32_t dl_b,
                               std::uint32_t nu_a, std::uint32_t nu_b,
                               std::uint32_t de_a, std::uint32_t de_b,
                               std::uint32_t ar_a, std::uint32_t ar_b,
                               std::uint32_t id_a, std::uint32_t id_b,
                               std::uint32_t pd_a, std::uint32_t pd_b,
                               ComparisonMode mode) {
  // FCFS floor: slot-ID tie-break, overridden by distinct arrivals.
  std::uint32_t aw = static_cast<std::uint32_t>(id_a <= id_b);
  aw = sel_bit(static_cast<std::uint32_t>(ar_a != ar_b),
               serial16_less_bf(ar_a, ar_b), aw);
  switch (mode) {
    case ComparisonMode::kDwcsFull: {
      const std::uint32_t lhs = nu_a * de_b;
      const std::uint32_t rhs = nu_b * de_a;
      const std::uint32_t both_zero = static_cast<std::uint32_t>(nu_a == 0) &
                                      static_cast<std::uint32_t>(nu_b == 0);
      aw = sel_bit(static_cast<std::uint32_t>(nu_a != nu_b),
                   static_cast<std::uint32_t>(nu_a < nu_b), aw);
      aw = sel_bit(static_cast<std::uint32_t>(lhs != rhs),
                   static_cast<std::uint32_t>(lhs < rhs), aw);
      aw = sel_bit(both_zero & static_cast<std::uint32_t>(de_a != de_b),
                   static_cast<std::uint32_t>(de_a > de_b), aw);
      aw = sel_bit(static_cast<std::uint32_t>(dl_a != dl_b),
                   serial16_less_bf(dl_a, dl_b), aw);
      break;
    }
    case ComparisonMode::kTagOnly:
      aw = sel_bit(static_cast<std::uint32_t>(dl_a != dl_b),
                   serial16_less_bf(dl_a, dl_b), aw);
      break;
    case ComparisonMode::kStatic:
      aw = sel_bit(static_cast<std::uint32_t>(de_a != de_b),
                   static_cast<std::uint32_t>(de_a > de_b), aw);
      break;
  }
  aw = sel_bit(pd_a ^ pd_b, pd_a, aw);
  return aw;
}

inline void cswap16(std::uint16_t* f, unsigned lo, unsigned hi,
                    std::uint16_t m) {
  const auto x = static_cast<std::uint16_t>((f[lo] ^ f[hi]) & m);
  f[lo] = static_cast<std::uint16_t>(f[lo] ^ x);
  f[hi] = static_cast<std::uint16_t>(f[hi] ^ x);
}

void run_pass_swar(LaneRegs& r, const PassPlan& plan, ComparisonMode mode,
                   KernelStats& st) {
  for (const PassPlan::Pair& p : plan.pairs) {
    const unsigned lo = p.lo;
    const unsigned hi = p.hi;
    const std::uint32_t aw =
        decide_bf(r.deadline[lo], r.deadline[hi], r.loss_num[lo],
                  r.loss_num[hi], r.loss_den[lo], r.loss_den[hi],
                  r.arrival[lo], r.arrival[hi], r.id[lo], r.id[hi],
                  r.pend[lo] & 1u, r.pend[hi] & 1u, mode);
    const std::uint32_t swap = aw ^ 1u ^ p.desc;
    const auto m = static_cast<std::uint16_t>(0u - swap);
    cswap16(r.deadline, lo, hi, m);
    cswap16(r.arrival, lo, hi, m);
    cswap16(r.loss_num, lo, hi, m);
    cswap16(r.loss_den, lo, hi, m);
    cswap16(r.id, lo, hi, m);
    cswap16(r.pend, lo, hi, m);
    st.swaps += swap;
    st.pending_pairs += (r.pend[lo] | r.pend[hi]) & 1u;
  }
}

}  // namespace

bool pair_a_wins_swar(const AttrWord& a, const AttrWord& b,
                      ComparisonMode mode) {
  return decide_bf(a.deadline.raw(), b.deadline.raw(), a.loss_num, b.loss_num,
                   a.loss_den, b.loss_den, a.arrival.raw(), b.arrival.raw(),
                   a.id, b.id, a.pending ? 1u : 0u, b.pending ? 1u : 0u,
                   mode) != 0;
}

KernelStats run_passes(LaneRegs& regs, unsigned n,
                       std::span<const PassPlan> plan, ComparisonMode mode,
                       Kernel k) {
  KernelStats st;
#if defined(SS_HAVE_AVX512)
  // One zmm per field covers all 32 slots; sub-width or mixed plans drop
  // to the AVX2 path (AVX-512BW implies AVX2 on every x86 CPU).
  if (k == Kernel::kAvx512) {
    if (detail::run_plan_avx512(regs, n, plan, mode, st)) return st;
    k = Kernel::kAvx2;
  }
#endif
#if defined(SS_HAVE_AVX2)
  // All-butterfly schedules (bitonic, perfect shuffle) run the whole plan
  // register-resident; the per-pass loop below only serves mixed plans.
  if (k == Kernel::kAvx2 && detail::run_plan_avx2(regs, n, plan, mode, st)) {
    return st;
  }
#endif
  for (const PassPlan& pass : plan) {
#if defined(SS_HAVE_AVX2)
    if (k == Kernel::kAvx2 && pass.butterfly && (n == 16 || n == 32)) {
      detail::run_pass_avx2(regs, n, pass, mode, st);
      continue;
    }
#else
    (void)k;
#endif
    run_pass_swar(regs, pass, mode, st);
  }
  return st;
}

}  // namespace ss::hw::simd
