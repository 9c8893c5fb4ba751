#include "util/rng.h"

#include <cmath>
#include <stdexcept>

namespace eprons {

namespace {

// The Box–Muller transform of one uniform pair, shared by normal() and
// NormalDraws so both evaluate the same expressions: returns the cosine
// variate mean + stddev * r * cos(theta) and stores the sine half
// r * sin(theta), which normal() caches and later returns as
// mean + stddev * (r * sin(theta)).
inline double box_muller(double u1, double u2, double mean, double stddev,
                         double* sin_half) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *sin_half = r * std::sin(theta);
  return mean + stddev * r * std::cos(theta);
}

}  // namespace

std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
  // All-zero state is invalid for xoshiro; splitmix64 cannot produce four
  // zero outputs from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

void Rng::jump() {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

Rng Rng::split() {
  Rng child = *this;  // copies current state
  jump();             // advance self past the child's future stream
  return child;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) {
    throw std::invalid_argument("Rng::uniform_int: empty range (hi < lo)");
  }
  // Unsigned arithmetic: hi - lo may exceed INT64_MAX, and the full int64
  // range wraps the span to 0, where every 64-bit draw is in range.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());
  // Rejection-free Lemire-style bounded draw would be fine; modulo bias for
  // span << 2^64 is negligible for simulation purposes, but avoid it anyway.
  std::uint64_t x, r;
  do {
    x = next();
    r = x % span;
  } while (x - r > ~std::uint64_t{0} - span + 1);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r);
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  u2 = uniform();
  has_cached_normal_ = true;
  return box_muller(u1, u2, mean, stddev, &cached_normal_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

void Rng::draw_normals(std::size_t count, NormalDraws* out) {
  NormalDraws& draws = *out;
  draws.count_ = count;
  draws.lead_cached_ = false;
  draws.lead_ = 0.0;
  std::size_t fresh = count;
  if (count > 0 && has_cached_normal_) {
    draws.lead_cached_ = true;
    draws.lead_ = cached_normal_;
    has_cached_normal_ = false;
    --fresh;
  }
  const std::size_t pairs = (fresh + 1) / 2;
  draws.uniforms_.resize(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    draws.uniforms_[2 * p] = u1;
    draws.uniforms_[2 * p + 1] = uniform();
  }
  if (pairs > 0) {
    // Every pair normal() draws caches its sine half, and an odd count
    // leaves the last one pending.
    box_muller(draws.uniforms_[2 * pairs - 2], draws.uniforms_[2 * pairs - 1],
               0.0, 1.0, &cached_normal_);
    has_cached_normal_ = fresh % 2 == 1;
  }
}

void NormalDraws::normal(std::size_t first, std::size_t count, double mean,
                         double stddev, double* out) const {
  std::size_t i = first;
  const std::size_t end = first + count;
  if (lead_cached_ && i == 0 && i < end) {
    *out++ = mean + stddev * lead_;
    ++i;
  }
  const std::size_t shift = lead_cached_ ? 1 : 0;
  while (i < end) {
    const std::size_t k = i - shift;
    double sin_half;
    const double cos_variate =
        box_muller(uniforms_[k / 2 * 2], uniforms_[k / 2 * 2 + 1], mean,
                   stddev, &sin_half);
    if (k % 2 == 0) {
      *out++ = cos_variate;
      if (++i == end) break;
    }
    *out++ = mean + stddev * sin_half;
    ++i;
  }
}

void NormalDraws::lognormal(std::size_t first, std::size_t count, double mu,
                            double sigma, double* out) const {
  normal(first, count, mu, sigma, out);
  for (std::size_t i = 0; i < count; ++i) out[i] = std::exp(out[i]);
}

double Rng::bounded_pareto(double alpha, double lo, double hi) {
  const double u = uniform();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for the large
  // per-epoch arrival counts we draw in trace generation.
  const double x = normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<std::int64_t>(x + 0.5);
}

}  // namespace eprons
