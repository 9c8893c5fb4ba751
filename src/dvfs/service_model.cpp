#include "dvfs/service_model.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace eprons {

namespace {

/// us per cycle at frequency f: t = W * ((1-mu)/f + mu/f_max) / 1000.
double per_cycle_us(double mu, Freq f, Freq f_max) {
  return ((1.0 - mu) / f + mu / f_max) / kCyclesPerUsPerGHz;
}

}  // namespace

ServiceModel::ServiceModel(DiscreteDistribution work, ServiceModelConfig config)
    : work_(std::move(work)), config_(config) {
  if (config_.f_min <= 0.0 || config_.f_max <= config_.f_min) {
    throw std::invalid_argument("bad frequency range");
  }
  const double mu = config_.freq_independent_fraction;
  if (mu < 0.0 || mu >= 1.0) {
    throw std::invalid_argument("freq-independent fraction must be in [0,1)");
  }
  const int steps = static_cast<int>(
      std::round((config_.f_max - config_.f_min) / config_.freq_step));
  for (int i = 0; i <= steps; ++i) {
    grid_.push_back(std::min(config_.f_max, config_.f_min + config_.freq_step * i));
    per_cycle_us_.push_back(per_cycle_us(mu, grid_.back(), config_.f_max));
  }
  conv_cache_.push_back(work_.truncated(config_.truncate_eps));
}

SimTime ServiceModel::service_time(Work work, Freq f) const {
  const double mu = config_.freq_independent_fraction;
  return (1.0 - mu) * work / (f * kCyclesPerUsPerGHz) +
         mu * work / (config_.f_max * kCyclesPerUsPerGHz);
}

Work ServiceModel::work_capacity(SimTime duration, Freq f) const {
  if (duration <= 0.0) return 0.0;
  return duration /
         per_cycle_us(config_.freq_independent_fraction, f, config_.f_max);
}

SimTime ServiceModel::mean_service_time(Freq f) const {
  return service_time(work_.mean(), f);
}

double ServiceModel::violation_probability(
    const DiscreteDistribution& equivalent, SimTime now, SimTime deadline,
    Freq f) const {
  if (deadline <= now) return 1.0;
  return equivalent.ccdf(work_capacity(deadline - now, f));
}

const DiscreteDistribution& ServiceModel::fresh_convolution(
    std::size_t count) const {
  if (count == 0) throw std::invalid_argument("count must be >= 1");
  while (conv_cache_.size() < count) {
    conv_cache_.push_back(convolve_work(conv_cache_.back()));
  }
  return conv_cache_[count - 1];
}

DiscreteDistribution ServiceModel::convolve_work(
    const DiscreteDistribution& d) const {
  const std::size_t n = fft_convolution_size(d.size(), work_.size());
  if (n == 0) return d.convolve(work_).truncated(config_.truncate_eps);
  // DiscreteDistribution::convolve with the cached spectrum standing in
  // for the work PDF's transform: same offset, step and normalization.
  std::vector<double> out = convolve(d.pmf(), work_spectrum(n), work_.size());
  return DiscreteDistribution(d.offset() + work_.offset(), d.step(),
                              std::move(out))
      .truncated(config_.truncate_eps);
}

const Spectrum& ServiceModel::work_spectrum(std::size_t n) const {
  if (!std::has_single_bit(n)) {
    throw std::invalid_argument("spectrum size must be a power of two");
  }
  Spectrum& spectrum =
      work_spectra_.at(static_cast<std::size_t>(std::countr_zero(n)));
  if (spectrum.size() != n) spectrum = real_spectrum(work_.pmf(), n);
  return spectrum;
}

}  // namespace eprons
