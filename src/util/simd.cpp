#include "util/simd.h"

namespace eprons {

bool simd_body_runs(SimdBody body) {
  switch (body) {
    case SimdBody::kBaseline:
      return true;
#if EPRONS_SIMD_BODIES
    case SimdBody::kAvx2:
      return __builtin_cpu_supports("avx2");
    case SimdBody::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
    case SimdBody::kAvx2:
    case SimdBody::kAvx512:
      return false;
#endif
  }
  return false;
}

SimdBody host_simd_body() {
  static const SimdBody body = simd_body_runs(SimdBody::kAvx512)
                                   ? SimdBody::kAvx512
                               : simd_body_runs(SimdBody::kAvx2)
                                   ? SimdBody::kAvx2
                                   : SimdBody::kBaseline;
  return body;
}

}  // namespace eprons
