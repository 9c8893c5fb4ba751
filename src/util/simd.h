// Instruction-set bodies of the hand-dispatched vector kernels.
//
// A kernel that must run at the host's full vector width is written once,
// as an always-inline function, and instantiated inside one wrapper per
// body: a baseline wrapper compiled for the build's target (x86-64: SSE2),
// and wrappers carrying GCC target attributes for AVX2 and AVX-512. The
// caller picks a body once (host_simd_body()) and may name any body that
// simd_body_runs(), which is how the tests run every body the host has,
// not only the dispatched one. Every body performs the same IEEE
// operations per lane — packed lanes equal their scalar counterparts, and
// the files holding bodies compile with -ffp-contract=off — so all bodies
// return the same bits; they differ only in speed.
//
// The AVX-512 wrapper asks for 512-bit vectors explicitly
// (prefer-vector-width=512): GCC's tunings for AVX-512 cores may keep
// auto-vectorized loops at 256 bits. Kernels written with GCC vector
// extensions keep their vectors local or pass them by reference, so no
// function without the AVX-512 target passes a 512-bit vector by value
// (-Wpsabi).
//
// ThreadSanitizer builds have the baseline body only, as stats/fast_log.cpp
// drops its target_clones there.
#pragma once

namespace eprons {

enum class SimdBody {
  kBaseline,
  kAvx2,
  kAvx512,
};

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__)
#define EPRONS_SIMD_BODIES 1
#define EPRONS_TARGET_AVX2 [[gnu::target("avx2")]]
#define EPRONS_TARGET_AVX512 \
  [[gnu::target("avx512f,avx512dq,prefer-vector-width=512")]]
#else
#define EPRONS_SIMD_BODIES 0
#endif

/// Whether this build has `body` and this host can execute it. The
/// baseline body always runs.
bool simd_body_runs(SimdBody body);

/// The widest body that runs here: the one the dispatched kernels use.
SimdBody host_simd_body();

}  // namespace eprons
