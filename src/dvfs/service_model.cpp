#include "dvfs/service_model.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace eprons {

namespace {

/// us per cycle at frequency f: t = W * ((1-mu)/f + mu/f_max) / 1000.
double per_cycle_us(double mu, Freq f, Freq f_max) {
  return ((1.0 - mu) / f + mu / f_max) / kCyclesPerUsPerGHz;
}

/// ServiceModel::one_request_thresholds' table, by bisection.
std::vector<SimTime> bisect_thresholds(const ServiceModel& model,
                                       double target_vp) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  const DiscreteDistribution& one = model.fresh_convolution(1);  // read-only
  std::vector<SimTime> thresholds(model.frequency_grid().size());
  for (std::size_t fi = 0; fi < thresholds.size(); ++fi) {
    // The policies' own predicate, at now = 0 so that deadline - now is
    // dt itself. It only turns from false to true as dt grows.
    auto meets = [&](SimTime dt) {
      return model.violation_probability_at(one, 0.0, dt, fi) <= target_vp;
    };
    if (meets(-kInf)) {  // VP is at most 1 <= target_vp
      thresholds[fi] = -kInf;
      continue;
    }
    // Now meets(dt) is false for every dt <= 0 (VP 1) and true at +inf
    // (VP 0). The bit patterns of the doubles in [+0, +inf] are ordered as
    // their values, so bisecting them finds the first double that meets.
    std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);
    std::uint64_t hi = std::bit_cast<std::uint64_t>(kInf);
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (meets(std::bit_cast<SimTime>(mid))) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    thresholds[fi] = std::bit_cast<SimTime>(hi);
  }
  return thresholds;
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
  work_.build_sampling_guide();
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
  return work_product(d).truncated(config_.truncate_eps);
}

DiscreteDistribution ServiceModel::work_product(
    const DiscreteDistribution& d) const {
  const std::size_t n = fft_convolution_size(d.size(), work_.size());
  if (n == 0) return d.convolve(work_);
  // DiscreteDistribution::convolve with the cached spectrum standing in
  // for the work PDF's transform: same offset, step and normalization.
  std::vector<double> out = convolve(d.pmf(), work_spectrum(n), work_.size());
  return DiscreteDistribution(d.offset() + work_.offset(), d.step(),
                              std::move(out));
}

std::span<const std::unique_ptr<const ServiceModel::ResidualLink>>
ServiceModel::residual_chain(std::size_t start_bin, std::size_t depth) const {
  if (depth == 0) throw std::invalid_argument("depth must be >= 1");
  if (residual_.chains.empty()) residual_.chains.resize(work_.size() + 1);
  auto& chain = residual_.chains.at(start_bin);
  if (chain.size() < depth) {
    // Only CDFs are kept, so the chain is rebuilt from its head; the
    // offsets are placeholders (the pmfs do not depend on them).
    DiscreteDistribution link = work_.remaining_from({start_bin, 0.0});
    const auto keep = [&](std::size_t trim) {
      const std::span<const double> cdf = link.cdf_view().table;
      chain.push_back(std::make_unique<const ResidualLink>(
          ResidualLink{trim, std::vector<double>(cdf.begin(), cdf.end())}));
    };
    if (chain.empty()) keep(0);
    for (std::size_t k = 1; k < depth; ++k) {
      const DiscreteDistribution product = work_product(link);
      const std::size_t trim =
          product.truncation_range(config_.truncate_eps).first;
      link = product.truncated(config_.truncate_eps);
      if (k == chain.size()) keep(trim);
    }
  }
  return {chain.data(), depth};
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

const std::vector<SimTime>& ServiceModel::one_request_thresholds(
    double target_vp) const {
  if (!(target_vp >= 0.0)) {
    throw std::invalid_argument("target VP must be >= 0");
  }
  const std::lock_guard<std::mutex> lock(thresholds_.mutex);
  for (const auto& [target, table] : thresholds_.tables) {
    if (target == target_vp) return *table;
  }
  thresholds_.tables.emplace_back(
      target_vp, std::make_unique<const std::vector<SimTime>>(
                     bisect_thresholds(*this, target_vp)));
  return *thresholds_.tables.back().second;
}

}  // namespace eprons
