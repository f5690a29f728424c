// simd_kernel.cpp — dispatch and the fit of a kernel to a network.  The
// vector kernels live in simd_kernel_avx2.cpp and simd_kernel_avx512.cpp
// (their own translation units, compiled with -mavx2 / -mavx512bw only
// where the toolchain supports it, so nothing in THIS file can ever emit
// a vector instruction on a host that lacks it).
#include "hw/simd_kernel.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ss::hw::simd {

namespace detail {
#if defined(SS_HAVE_AVX2)
// Implemented in simd_kernel_avx2.cpp.
KernelStats run_plan_avx2(LaneRegs& regs, unsigned n,
                          std::span<const PassPlan> plan, ComparisonMode mode);
#endif
#if defined(SS_HAVE_AVX512)
// Implemented in simd_kernel_avx512.cpp.
KernelStats run_plan_avx512(LaneRegs& regs, std::span<const PassPlan> plan,
                            ComparisonMode mode);
bool replace_dirty_avx512(LaneRegs& sorted, const LaneRegs& bus,
                          std::uint32_t dirty);
#endif
}  // namespace detail

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kReference: return "reference";
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
  const std::string_view v(value);
  const auto is = [v](std::string_view token) {
    return std::equal(v.begin(), v.end(), token.begin(), token.end(),
                      [](char c, char t) {
                        return std::toupper(static_cast<unsigned char>(c)) ==
                               t;
                      });
  };
  if (is("AUTO")) return KernelChoice::kAuto;
  if (is("REF")) return KernelChoice::kReference;
  if (is("AVX2")) return KernelChoice::kAvx2;
  if (is("AVX512")) return KernelChoice::kAvx512;
  throw std::invalid_argument("SS_SIMD=" + std::string(v) +
                              ": expected AUTO, REF, AVX2 or AVX512");
}

Kernel resolve(KernelChoice c) {
  switch (c) {
    case KernelChoice::kReference: return Kernel::kReference;
    case KernelChoice::kAvx2:
      // An explicit AVX2 request never upgrades: the differential legs
      // pin the exact kernel they compare.
      return avx2_supported() ? Kernel::kAvx2 : Kernel::kReference;
    case KernelChoice::kAvx512:
    case KernelChoice::kAuto:
      if (avx512_supported()) return Kernel::kAvx512;
      return avx2_supported() ? Kernel::kAvx2 : Kernel::kReference;
  }
  return Kernel::kReference;
}

Kernel default_kernel() {
  static const Kernel k = resolve(parse_choice(std::getenv("SS_SIMD")));
  return k;
}

Kernel fit(Kernel k, unsigned n, std::span<const PassPlan> plan) {
  const bool butterfly =
      std::all_of(plan.begin(), plan.end(),
                  [](const PassPlan& pp) { return pp.butterfly; });
  if (k == Kernel::kReference || !butterfly) return Kernel::kReference;
  if (k == Kernel::kAvx512 && n == 32) return Kernel::kAvx512;
  // AVX-512BW implies AVX2, so an AVX-512 host runs 16-slot plans on AVX2.
  return (n == 16 || n == 32) ? Kernel::kAvx2 : Kernel::kReference;
}

KernelStats run_plan(LaneRegs& regs, unsigned n,
                     std::span<const PassPlan> plan, ComparisonMode mode,
                     Kernel k) {
  assert(k != Kernel::kReference && fit(k, n, plan) == k);
#if defined(SS_HAVE_AVX512)
  if (k == Kernel::kAvx512) return detail::run_plan_avx512(regs, plan, mode);
#endif
#if defined(SS_HAVE_AVX2)
  return detail::run_plan_avx2(regs, n, plan, mode);
#else
  // Unreachable: resolve() hands out no vector kernel this binary lacks.
  (void)regs;
  (void)n;
  (void)plan;
  (void)mode;
  (void)k;
  return {};
#endif
}

bool replace_dirty(LaneRegs& sorted, const LaneRegs& bus,
                   std::uint32_t dirty) {
#if defined(SS_HAVE_AVX512)
  assert(avx512_supported());
  return detail::replace_dirty_avx512(sorted, bus, dirty);
#else
  (void)sorted;
  (void)bus;
  (void)dirty;
  return false;
#endif
}

}  // namespace ss::hw::simd
