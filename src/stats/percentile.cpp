#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

namespace eprons {

void PercentileEstimator::add(double sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

double PercentileEstimator::quantile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank: smallest value with at least ceil(p*n) samples <= it.
  const auto n = samples_.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return samples_[rank - 1];
}

double PercentileEstimator::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

double PercentileEstimator::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double PercentileEstimator::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

void PercentileEstimator::clear() {
  samples_.clear();
  sorted_ = true;
}

WindowedPercentile::WindowedPercentile(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void WindowedPercentile::add(double sample) {
  window_.push_back(sample);
  if (window_.size() > capacity_) window_.pop_front();
}

double WindowedPercentile::quantile(double p) const {
  if (window_.empty()) return 0.0;
  // Nearest rank by selection: nth_element puts the rank-th smallest value
  // where a full sort would, so the result is the same element.
  std::vector<double> values(window_.begin(), window_.end());
  p = std::clamp(p, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

void WindowedPercentile::clear() { window_.clear(); }

void OnlineStats::add(double sample) {
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return count_ ? min_ : 0.0; }
double OnlineStats::max() const { return count_ ? max_ : 0.0; }

void OnlineStats::clear() {
  count_ = 0;
  mean_ = m2_ = min_ = max_ = 0.0;
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

}  // namespace eprons
