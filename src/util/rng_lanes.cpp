#include "util/rng_lanes.h"

#include <cstring>
#include <stdexcept>

namespace eprons {

namespace {

using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using I64x8 = std::int64_t __attribute__((vector_size(64)));
using F64x8 = double __attribute__((vector_size(64)));

static_assert(kUniformLanes == 8, "the lane kernel is written for 8 lanes");

[[gnu::always_inline]] inline void rotl(U64x8& x, int k) {
  x = (x << k) | (x >> (64 - k));
}

// One next() of every lane; `draw` receives next() >> 11, the 53 bits
// uniform() keeps. Multiplications by 5 and 9 are spelled as shifts and
// adds, which every body has (AVX2 has no 64-bit multiply).
[[gnu::always_inline]] inline void step(U64x8& s0, U64x8& s1, U64x8& s2,
                                        U64x8& s3, U64x8& draw) {
  U64x8 r = s1 + (s1 << 2);
  rotl(r, 7);
  draw = (r + (r << 3)) >> 11;
  const U64x8 t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  rotl(s3, 45);
}

// draw * 2^-53 for draw < 2^53, exactly. kNative converts the 53-bit
// integer in one instruction (AVX-512DQ). Otherwise the integer is split
// into 21 high and 32 low bits, each placed in the mantissa of a double
// whose exponent makes it (2^84 + high * 2^32) and (2^52 + low); then
// (hi - (2^84 + 2^52)) + lo: the subtraction's exact result is an integer
// below 2^53 in magnitude, so it is representable and rounds nothing, and
// so is the sum, which equals draw. Either way the final multiply by a
// power of two is exact, as in Rng::uniform().
template <bool kNative>
[[gnu::always_inline]] inline void to_unit(const U64x8& draw, F64x8& out) {
  if constexpr (kNative) {
    out = __builtin_convertvector((I64x8)draw, F64x8);
  } else {
    const U64x8 hi_bits = (draw >> 32) | 0x4530000000000000ull;
    const U64x8 lo_bits = (draw & 0xffffffffull) | 0x4330000000000000ull;
    out = ((F64x8)hi_bits - 0x1.00000001p84) + (F64x8)lo_bits;
  }
  out *= 0x1.0p-53;
}

// In-register transpose of the 8x8 tile m (m[k][i] = lane i's k-th draw of
// the tile) into m[i][k].
[[gnu::always_inline]] inline void transpose(F64x8 (&m)[8]) {
  F64x8 a[8];
  for (int p = 0; p < 8; p += 2) {
    a[p] = __builtin_shufflevector(m[p], m[p + 1], 0, 8, 2, 10, 4, 12, 6, 14);
    a[p + 1] =
        __builtin_shufflevector(m[p], m[p + 1], 1, 9, 3, 11, 5, 13, 7, 15);
  }
  F64x8 b[8];
  for (int p = 0; p < 8; p += 4) {
    for (int q = 0; q < 2; ++q) {
      b[p + q] = __builtin_shufflevector(a[p + q], a[p + q + 2], 0, 1, 8, 9,
                                         4, 5, 12, 13);
      b[p + q + 2] = __builtin_shufflevector(a[p + q], a[p + q + 2], 2, 3, 10,
                                             11, 6, 7, 14, 15);
    }
  }
  for (int q = 0; q < 4; ++q) {
    m[q] = __builtin_shufflevector(b[q], b[q + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    m[q + 4] =
        __builtin_shufflevector(b[q], b[q + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

template <bool kNative>
[[gnu::always_inline]] inline void lanes_impl(const Rng::State* starts,
                                              std::size_t steps, double* out) {
  U64x8 s0;
  U64x8 s1;
  U64x8 s2;
  U64x8 s3;
  for (std::size_t i = 0; i < kUniformLanes; ++i) {
    s0[i] = starts[i][0];
    s1[i] = starts[i][1];
    s2[i] = starts[i][2];
    s3[i] = starts[i][3];
  }
  for (std::size_t t = 0; t < steps; t += 8) {
    F64x8 tile[8];
    for (int k = 0; k < 8; ++k) {
      U64x8 draw;
      step(s0, s1, s2, s3, draw);
      to_unit<kNative>(draw, tile[k]);
    }
    transpose(tile);
    for (std::size_t i = 0; i < kUniformLanes; ++i) {
      std::memcpy(out + i * steps + t, &tile[i], sizeof(F64x8));
    }
  }
}

void lanes_baseline(const Rng::State* starts, std::size_t steps,
                    double* out) {
  lanes_impl<false>(starts, steps, out);
}

#if EPRONS_SIMD_BODIES
EPRONS_TARGET_AVX2 void lanes_avx2(const Rng::State* starts,
                                   std::size_t steps, double* out) {
  lanes_impl<false>(starts, steps, out);
}

EPRONS_TARGET_AVX512 void lanes_avx512(const Rng::State* starts,
                                       std::size_t steps, double* out) {
  lanes_impl<true>(starts, steps, out);
}
#endif

}  // namespace

void uniform_lanes(SimdBody body, const Rng::State* starts, std::size_t steps,
                   double* out) {
  if (steps % kUniformLanes != 0) {
    throw std::invalid_argument(
        "uniform_lanes: steps must be a multiple of kUniformLanes");
  }
  switch (body) {
#if EPRONS_SIMD_BODIES
    case SimdBody::kAvx512:
      lanes_avx512(starts, steps, out);
      return;
    case SimdBody::kAvx2:
      lanes_avx2(starts, steps, out);
      return;
#endif
    default:
      lanes_baseline(starts, steps, out);
      return;
  }
}

RngCheckpoints::RngCheckpoints(std::uint64_t seed, std::size_t streams)
    : seed_(seed), streams_(streams) {}

void RngCheckpoints::states(std::size_t stream, std::size_t first,
                            std::size_t count, Rng::State* out) const {
  if (stream >= streams_) {
    throw std::out_of_range("RngCheckpoints: no such stream");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (frontier_.empty()) {
    Rng base(seed_);
    frontier_.reserve(streams_);
    for (std::size_t s = 0; s < streams_; ++s) frontier_.push_back(base.split());
    states_.resize(streams_);
  }
  std::vector<Rng::State>& held = states_[stream];
  Rng& frontier = frontier_[stream];
  while (held.size() < first + count) {
    if (!held.empty()) frontier.discard(kStride);
    held.push_back(frontier.state());
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = held[first + i];
}

std::size_t RngCheckpoints::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const std::vector<Rng::State>& held : states_) total += held.size();
  return total;
}

UniformWindow::UniformWindow(const RngCheckpoints* table, std::size_t stream,
                             SimdBody body)
    : table_(table), stream_(stream), body_(body) {}

void UniformWindow::refill() {
  if (!round_) round_ = std::make_unique_for_overwrite<double[]>(kRound);
  Rng::State starts[kUniformLanes];
  table_->states(stream_, next_round_ * kUniformLanes, kUniformLanes, starts);
  uniform_lanes(body_, starts, RngCheckpoints::kStride, round_.get());
  ++next_round_;
  at_ = round_.get();
  end_ = at_ + kRound;
}

void UniformWindow::take_columns_per_draw(std::size_t rows, std::size_t cols,
                                          double* const* dst, bool nonzero) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double u = next();
      while (nonzero && u == 0.0) u = next();
      dst[c][r] = u;
    }
  }
}

}  // namespace eprons
