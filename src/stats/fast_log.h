// Deterministic elementwise natural logarithm for Monte-Carlo hot loops.
//
// std::log is the slack estimator's single most expensive instruction (one
// call per exponential draw, ~2x the cost of the RNG itself), and its
// bit-level results are owned by whatever libm the host links — two builds
// against different glibc versions may disagree in the last ulp. fast_log
// replaces it on the sampling hot path with the classic fdlibm/musl
// algorithm compiled into this repo: argument reduction to [sqrt(2)/2,
// sqrt(2)) by exponent surgery, then a degree-14 odd polynomial in
// s = f/(2+f). Accuracy is < 1 ulp over the full domain we use it on —
// statistically indistinguishable from libm for sampling purposes — and
// the result is a pure function of the input bits and this source file,
// which makes the determinism contract self-contained.
//
// Contract: the input must be a positive, finite, NORMAL double (the
// sampler feeds it uniforms from (0, 1], whose smallest value 2^-53 is
// comfortably normal). Zeros, subnormals, infinities and NaNs are not
// handled — callers own the rejection loop.
//
// fast_log.cpp is compiled with -ffp-contract=off so no call site can see
// an FMA-fused variant: every caller in the process observes the one
// compiled sequence of IEEE operations, which is what lets the fast and
// reference samplers (and any future vectorized batch) agree bit for bit.
#pragma once

#include <cstddef>

namespace eprons {

/// Natural log of a positive finite normal double; < 1 ulp error.
double fast_log(double x);

/// Elementwise fast_log over a block: out[i] = fast_log(x[i]). In-place
/// (out == x) is allowed. The loop body is branchless, so the compiler
/// vectorizes it even at the baseline x86-64 target (SSE2) — roughly
/// halving the per-log cost versus the scalar call — and SIMD lanes
/// execute the identical IEEE operation sequence, so every element is
/// bit-identical to the scalar fast_log(x[i]) (asserted by the
/// differential tests).
void fast_log_block(const double* x, double* out, std::size_t n);

/// Antithetic variant: lg_e[i] = fast_log(x[i]), lg_o[i] =
/// fast_log(1.0 - x[i]) in a single vectorized pass (the subtraction is
/// one exact IEEE op, so the results match the two-call spelling bit for
/// bit). In-place (lg_e == x) is allowed. Feeds the slack estimator's
/// paired exponential draws without materializing the 1-x buffer, and so
/// also has an 8-wide AVX-512 clone besides the AVX2 one; all clones
/// return the same bits.
void fast_log_block_antithetic(const double* x, double* lg_e, double* lg_o,
                               std::size_t n);

}  // namespace eprons
