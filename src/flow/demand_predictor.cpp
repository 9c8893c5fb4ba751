#include "flow/demand_predictor.h"

namespace eprons {

DemandPredictor::DemandPredictor(DemandPredictorConfig config)
    : config_(config) {}

void DemandPredictor::add_sample(FlowId flow, Bandwidth rate) {
  window(flow).add(rate);
}

WindowedPercentile& DemandPredictor::window(FlowId flow) {
  // Constructs the window in place, and only for a new flow: passing a
  // WindowedPercentile temporary would build (and free) a deque each call.
  return windows_.try_emplace(flow, config_.window).first->second;
}

Bandwidth DemandPredictor::predict(FlowId flow) const {
  const auto it = windows_.find(flow);
  return it == windows_.end() ? 0.0 : predict(it->second);
}

Bandwidth DemandPredictor::predict(const WindowedPercentile& window) const {
  return window.empty() ? 0.0 : window.quantile(config_.percentile);
}

std::size_t DemandPredictor::sample_count(FlowId flow) const {
  const auto it = windows_.find(flow);
  return it == windows_.end() ? 0 : it->second.count();
}

void DemandPredictor::forget(FlowId flow) { windows_.erase(flow); }

void DemandPredictor::clear() { windows_.clear(); }

}  // namespace eprons
