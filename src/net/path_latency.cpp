#include "net/path_latency.h"

namespace eprons {

PathLatencyEstimator::PathLatencyEstimator(const LinkUtilization* utilization,
                                           LinkLatencyModel model)
    : utilization_(utilization), model_(model) {}

SimTime PathLatencyEstimator::mean_latency(const Path& path) const {
  SimTime total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkUtilization::DirectedUtilization hop =
        utilization_->directed_utilizations(path[i], path[i + 1]);
    total += model_.mean_latency(hop.utilization, hop.bursty);
  }
  return total;
}

SimTime PathLatencyEstimator::sample_latency(const Path& path,
                                             Rng& rng) const {
  SimTime total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkUtilization::DirectedUtilization hop =
        utilization_->directed_utilizations(path[i], path[i + 1]);
    total += model_.sample_prepared(
        model_.prepare_hop(hop.utilization, hop.bursty), rng);
  }
  return total;
}

void PathLatencyEstimator::prepare(const Path& path,
                                   std::vector<PreparedHop>* out) const {
  out->clear();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkUtilization::DirectedUtilization hop =
        utilization_->directed_utilizations(path[i], path[i + 1]);
    out->push_back(model_.prepare_hop(hop.utilization, hop.bursty));
  }
}

SimTime PathLatencyEstimator::max_latency(const Path& path) const {
  if (path.size() < 2) return 0.0;
  return static_cast<double>(path.size() - 1) *
         (model_.max_latency() + model_.config().burst_len_us);
}

}  // namespace eprons
