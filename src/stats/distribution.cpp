#include "stats/distribution.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "stats/fft.h"

namespace eprons {

DiscreteDistribution::DiscreteDistribution(double offset, double step,
                                           std::vector<double> pmf)
    : offset_(offset), step_(step), pmf_(std::move(pmf)) {
  if (step_ <= 0.0) throw std::invalid_argument("distribution step must be > 0");
  for (double& p : pmf_) {
    if (p < 0.0) p = 0.0;  // tolerate tiny negative round-off from callers
  }
  normalize();
}

void DiscreteDistribution::normalize() {
  const double total = std::accumulate(pmf_.begin(), pmf_.end(), 0.0);
  if (total <= 0.0) {
    throw std::invalid_argument("distribution must carry positive mass");
  }
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    pmf_[i] /= total;
    acc += pmf_[i];
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;  // pin against round-off
}

DiscreteDistribution DiscreteDistribution::from_samples(
    const std::vector<double>& samples, std::size_t bins) {
  if (samples.empty()) throw std::invalid_argument("no samples");
  if (bins == 0) throw std::invalid_argument("bins must be > 0");
  const auto [lo_it, hi_it] = std::minmax_element(samples.begin(), samples.end());
  const double lo = *lo_it;
  double hi = *hi_it;
  if (hi <= lo) hi = lo + 1.0;  // degenerate sample set: one wide bin
  const double step = (hi - lo) / static_cast<double>(bins);
  std::vector<double> pmf(bins, 0.0);
  for (double s : samples) {
    auto idx = static_cast<std::size_t>((s - lo) / step);
    if (idx >= bins) idx = bins - 1;
    pmf[idx] += 1.0;
  }
  // Values live at bin centers.
  return DiscreteDistribution(lo + step / 2.0, step, std::move(pmf));
}

DiscreteDistribution DiscreteDistribution::point_mass(double value,
                                                      double step) {
  return DiscreteDistribution(value, step, {1.0});
}

double DiscreteDistribution::max_value() const {
  return offset_ + static_cast<double>(pmf_.size() - 1) * step_;
}

double DiscreteDistribution::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    m += pmf_[i] * (offset_ + static_cast<double>(i) * step_);
  }
  return m;
}

double DiscreteDistribution::variance() const {
  const double m = mean();
  double v = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    const double x = offset_ + static_cast<double>(i) * step_;
    v += pmf_[i] * (x - m) * (x - m);
  }
  return v;
}

double DiscreteDistribution::cdf(double x) const {
  if (pmf_.empty()) return 0.0;
  if (x < offset_) return 0.0;
  const double pos = (x - offset_) / step_;
  if (pos >= static_cast<double>(pmf_.size() - 1)) return 1.0;
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double c_lo = cdf_[lo];
  const double c_hi = cdf_[lo + 1];
  return c_lo + frac * (c_hi - c_lo);
}

double DiscreteDistribution::ccdf(double x) const { return 1.0 - cdf(x); }

double DiscreteDistribution::quantile(double p) const {
  if (pmf_.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), p);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  if (idx >= pmf_.size()) return max_value();
  return offset_ + static_cast<double>(idx) * step_;
}

DiscreteDistribution DiscreteDistribution::convolve(
    const DiscreteDistribution& other) const {
  if (std::abs(step_ - other.step_) > 1e-12 * std::max(step_, other.step_)) {
    throw std::invalid_argument("convolve requires matching grid steps");
  }
  std::vector<double> out = eprons::convolve(pmf_, other.pmf_);
  return DiscreteDistribution(offset_ + other.offset_, step_, std::move(out));
}

DiscreteDistribution DiscreteDistribution::conditional_remaining(
    double done) const {
  if (done <= offset_) {
    // Nothing observed yet beyond the minimum: just shift support.
    return DiscreteDistribution(offset_ - done, step_, pmf_);
  }
  // Keep bins with value strictly greater than `done`.
  const auto first =
      static_cast<std::size_t>(std::ceil((done - offset_) / step_ + 1e-9));
  if (first >= pmf_.size()) {
    return point_mass(0.0, step_);
  }
  std::vector<double> tail(pmf_.begin() + static_cast<std::ptrdiff_t>(first),
                           pmf_.end());
  const double mass = std::accumulate(tail.begin(), tail.end(), 0.0);
  if (mass <= 0.0) return point_mass(0.0, step_);
  const double new_offset = offset_ + static_cast<double>(first) * step_ - done;
  return DiscreteDistribution(new_offset, step_, std::move(tail));
}

DiscreteDistribution DiscreteDistribution::truncated(double eps) const {
  if (pmf_.empty()) return *this;
  std::size_t first = 0;
  double head = 0.0;
  while (first + 1 < pmf_.size() && head + pmf_[first] < eps) {
    head += pmf_[first];
    ++first;
  }
  std::size_t last = pmf_.size();
  double tail = 0.0;
  while (last > first + 1 && tail + pmf_[last - 1] < eps) {
    tail += pmf_[last - 1];
    --last;
  }
  std::vector<double> kept(pmf_.begin() + static_cast<std::ptrdiff_t>(first),
                           pmf_.begin() + static_cast<std::ptrdiff_t>(last));
  return DiscreteDistribution(offset_ + static_cast<double>(first) * step_,
                              step_, std::move(kept));
}

double DiscreteDistribution::sample(Rng& rng) const {
  const std::size_t idx = bin_at(rng.uniform());
  const double base = offset_ + static_cast<double>(idx) * step_;
  // Jitter within the bin so sampled values are not quantized to the grid.
  return base + (rng.uniform() - 0.5) * step_;
}

// The CDF is partitioned at every u in [0, 1): its entries below u come
// first, since the running sum never falls and the last entry is pinned to
// 1 > u. So the first entry >= u is lower_bound's answer, and it is at or
// after the first entry >= k/M for any k/M <= u.
std::size_t DiscreteDistribution::bin_at(double u) const {
  if (guide_.empty()) {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    pmf_.size() - 1);
  }
  // u * M is exact for a power-of-two M, so k is floor(u * M).
  const auto k =
      static_cast<std::size_t>(u * static_cast<double>(guide_.size()));
  std::size_t i = guide_[k];
  while (cdf_[i] < u) ++i;
  return i;
}

void DiscreteDistribution::build_sampling_guide() {
  if (pmf_.empty()) return;
  const std::size_t m = std::bit_ceil(pmf_.size());
  const double inv_m = 1.0 / static_cast<double>(m);  // exact
  guide_.resize(m);
  std::size_t i = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const double u = static_cast<double>(k) * inv_m;  // exact, below 1
    while (cdf_[i] < u) ++i;
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace eprons
