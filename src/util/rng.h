// Deterministic pseudo-random number generation for reproducible experiments.
//
// We ship our own xoshiro256** implementation (public-domain algorithm by
// Blackman & Vigna) instead of std::mt19937 because (a) it is faster, (b) its
// stream-split semantics (jump()) let us give every simulated component an
// independent, deterministic stream from a single experiment seed.
//
// The generator's whole position is its four state words (state()); a
// stream can therefore be regenerated from any saved state, several
// positions at once. util/rng_lanes.h does that for the slack estimator:
// eight lanes started from states saved every RngCheckpoints::kStride draws
// step in lockstep and return the very uniform() values of the scalar
// stream, in stream order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace eprons {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// The uniforms behind `size()` successive Rng::normal() calls, drawn
/// serially in stream order by Rng::draw_normals. Evaluating them is a pure
/// function of the stored uniforms, so any thread may evaluate any range:
/// variate i equals the i-th of those calls bit for bit (both go through
/// one Box–Muller helper), including a variate the generator had cached.
class NormalDraws {
 public:
  std::size_t size() const { return count_; }

  /// Writes variates [first, first + count) of N(mean, stddev) to out.
  void normal(std::size_t first, std::size_t count, double mean,
              double stddev, double* out) const;
  /// As normal(), exponentiated: the successive lognormal(mu, sigma) calls.
  void lognormal(std::size_t first, std::size_t count, double mu,
                 double sigma, double* out) const;

 private:
  friend class Rng;

  std::size_t count_ = 0;
  /// Variate 0 is the sine half the generator had cached.
  bool lead_cached_ = false;
  double lead_ = 0.0;
  /// (u1, u2) per Box–Muller pair, in draw order.
  std::vector<double> uniforms_;
};

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  /// Core generator step. Inline — this sits in the innermost statement of
  /// every sampler; pure integer ops, so inlining cannot change any bits.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Returns a new generator 2^128 steps ahead; use to derive independent
  /// streams for sub-components from one experiment seed.
  Rng split();

  /// The four xoshiro256** state words: the generator's position in its
  /// stream (the normal() variate it may have cached aside).
  using State = std::array<std::uint64_t, 4>;
  const State& state() const { return s_; }

  /// Skips the next `n` draws, as n calls of next() would.
  void discard(std::uint64_t n) {
    for (; n > 0; --n) next();
  }

  /// Uniform double in [0, 1). Inline: one generator step and one exact
  /// multiply by 2^-53 (a single IEEE operation — nothing to contract).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Throws std::invalid_argument
  /// when hi < lo (an empty range), drawing nothing.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with given mean (mean = 1/lambda).
  double exponential(double mean);
  /// Standard normal via Box-Muller (cached second variate).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Draws the uniforms of the next `count` normal() (or lognormal())
  /// calls and leaves the generator as those calls would — its state words
  /// and its cached variate — without evaluating them.
  NormalDraws draw_normals(std::size_t count);
  /// Bounded Pareto on [lo, hi] with shape alpha.
  double bounded_pareto(double alpha, double lo, double hi);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Poisson-distributed count (Knuth for small mean, PTRS-style rejection
  /// approximation via normal for large mean).
  std::int64_t poisson(double mean);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  void jump();

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace eprons
