#include "stats/fast_log.h"

#include <cstdint>
#include <cstring>

namespace eprons {

namespace {

// Coefficients from fdlibm's e_log.c (Sun Microsystems, freely
// redistributable); the same minimax polynomial musl and glibc's generic
// path ship. ln2 is split hi/lo so k*ln2 keeps full precision.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

}  // namespace

namespace {

// The whole algorithm, forced inline so every block loop below vectorizes
// its own copy.
[[gnu::always_inline]] inline double log_impl(double x) {
  // x = 2^k * m with m in [sqrt(2)/2, sqrt(2)): shift the biased exponent
  // so the mantissa cut happens at sqrt(2) instead of 2.
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits += 0x3ff0000000000000ull - 0x3fe6a09e00000000ull;
  const int k =
      static_cast<int>(static_cast<std::int64_t>(bits >> 52)) - 0x3ff;
  bits = (bits & 0x000fffffffffffffull) + 0x3fe6a09e00000000ull;
  double m;
  std::memcpy(&m, &bits, sizeof(m));

  // log(m) = log((2+f)/(2-f')) expansion: s = f/(2+f), f = m-1;
  // log(m) = 2s + 2/3 s^3 + ... , evaluated as f - hfsq + s*(hfsq+R).
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double dk = static_cast<double>(k);
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

}  // namespace

double fast_log(double x) { return log_impl(x); }

// The block loops carry target_clones so the runtime dispatcher can pick a
// 4-wide AVX2 body on hosts that have it — and, for the slack sampler's
// antithetic block, an 8-wide AVX-512 body — while the build itself stays
// at the portable baseline. Bit-exactness is unaffected: every clone runs
// the identical sequence of IEEE double operations per lane (packed
// divide/multiply/add lanes equal their scalar counterparts exactly, and
// -ffp-contract=off on this file forbids FMA fusion in every clone), so
// all clones — and the scalar fast_log — agree bit for bit.
//
// ThreadSanitizer builds drop the clones: the ifunc resolver that picks a
// clone runs at load time, before the TSan runtime is initialized, and
// the instrumented resolver crashes the process (GCC 12).
#if !defined(__SANITIZE_THREAD__)
[[gnu::target_clones("avx512f", "avx2", "default")]]
#endif
void fast_log_block_antithetic(const double* x, double* lg_e, double* lg_o,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double u = x[i];
    lg_e[i] = log_impl(u);
    lg_o[i] = log_impl(1.0 - u);
  }
}

}  // namespace eprons
