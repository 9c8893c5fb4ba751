#include "net/link_latency.h"

#include <algorithm>
#include <stdexcept>

namespace eprons {

LinkLatencyModel::LinkLatencyModel(LinkLatencyConfig config)
    : config_(config) {
  if (config_.capacity_mbps <= 0.0 || config_.avg_packet_bytes <= 0.0 ||
      config_.buffer_packets < 1.0) {
    throw std::invalid_argument("bad link latency configuration");
  }
  // Negated comparisons, so a NaN fails them too: a NaN burst_coeff would
  // otherwise turn the burst term off silently (p_burst > 0 is false).
  if (!(config_.base_latency_us >= 0.0) || !(config_.burst_len_us >= 0.0) ||
      !(config_.burst_coeff >= 0.0)) {
    throw std::invalid_argument(
        "LinkLatencyConfig base_latency_us, burst_len_us and burst_coeff "
        "must be >= 0 (and not NaN)");
  }
  if (!(config_.knee_utilization >= 0.0 && config_.knee_utilization <= 1.0)) {
    throw std::invalid_argument(
        "LinkLatencyConfig knee_utilization must be in [0, 1]");
  }
}

SimTime LinkLatencyModel::packet_service_time() const {
  // bits / (Mbps) = us exactly: (bytes*8) bits / (capacity Mbit/s)
  return config_.avg_packet_bytes * 8.0 / config_.capacity_mbps;
}

SimTime LinkLatencyModel::sojourn_mean(double utilization) const {
  const SimTime service = packet_service_time();
  const SimTime cap = service * config_.buffer_packets;
  utilization = std::clamp(utilization, 0.0, 1.0);
  if (utilization >= 1.0) return cap;
  const SimTime sojourn = service / (1.0 - utilization);
  return std::min(sojourn, cap);
}

double LinkLatencyModel::burst_intensity(double utilization) const {
  if (utilization <= config_.knee_utilization) return 0.0;
  const double t = (utilization - config_.knee_utilization) /
                   (1.0 - config_.knee_utilization);
  return std::min(t, 1.0);
}

SimTime LinkLatencyModel::mean_latency(double utilization) const {
  utilization = std::clamp(utilization, 0.0, 1.0);
  const SimTime cap = packet_service_time() * config_.buffer_packets;
  const double t = burst_intensity(utilization);
  const double p_burst = config_.burst_coeff * t * t;
  const SimTime burst_mean = p_burst * (t * cap) / 2.0;
  return config_.base_latency_us +
         std::min(cap, sojourn_mean(utilization) + burst_mean);
}

SimTime LinkLatencyModel::mean_latency(double utilization,
                                       double bursty_utilization) const {
  bursty_utilization = std::clamp(bursty_utilization, 0.0, 1.0);
  return mean_latency(utilization) +
         bursty_utilization * config_.burst_len_us / 2.0;
}

SimTime LinkLatencyModel::sample_latency(double utilization, double bursty_utilization,
                                         Rng& rng) const {
  SimTime latency = sample_latency(utilization, rng);
  bursty_utilization = std::clamp(bursty_utilization, 0.0, 1.0);
  if (bursty_utilization > 0.0 && rng.bernoulli(bursty_utilization)) {
    // Collided with an elephant train: wait out its residual.
    latency += rng.uniform(0.0, config_.burst_len_us);
  }
  return latency;
}

SimTime LinkLatencyModel::sample_latency(double utilization, Rng& rng) const {
  utilization = std::clamp(utilization, 0.0, 1.0);
  const SimTime mean = sojourn_mean(utilization);
  const SimTime cap = packet_service_time() * config_.buffer_packets;
  SimTime queueing = rng.exponential(mean);
  const double t = burst_intensity(utilization);
  const double p_burst = config_.burst_coeff * t * t;
  if (p_burst > 0.0 && rng.bernoulli(p_burst)) {
    // Landed behind a standing burst of background packets.
    queueing += rng.uniform(0.0, t * cap);
  }
  return config_.base_latency_us + std::min(queueing, cap);
}

PreparedHop LinkLatencyModel::prepare_hop(double utilization,
                                          double bursty_utilization) const {
  // Mirror sample_latency(utilization, rng) term by term: same clamps,
  // same expression order, so the precomputed doubles are the very values
  // the per-sample path would recompute.
  utilization = std::clamp(utilization, 0.0, 1.0);
  PreparedHop hop;
  hop.sojourn_mean = sojourn_mean(utilization);
  hop.cap = packet_service_time() * config_.buffer_packets;
  const double t = burst_intensity(utilization);
  hop.p_burst = config_.burst_coeff * t * t;
  hop.burst_window = t * hop.cap;
  hop.bursty = std::clamp(bursty_utilization, 0.0, 1.0);
  return hop;
}

SimTime LinkLatencyModel::max_latency() const {
  return config_.base_latency_us +
         packet_service_time() * config_.buffer_packets;
}

}  // namespace eprons
