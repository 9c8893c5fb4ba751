#include "flow/timed_flow.h"

#include <algorithm>
#include <stdexcept>

namespace eprons {

FlowId TimedFlowSet::add(int src_host, int dst_host, long long volume_mbit,
                         int release_epoch, int deadline_epoch) {
  if (src_host == dst_host) {
    throw std::invalid_argument("timed flow endpoints must differ");
  }
  if (volume_mbit < 0) throw std::invalid_argument("negative volume");
  if (release_epoch < 0 || deadline_epoch < release_epoch) {
    throw std::invalid_argument("timed flow window is empty");
  }
  const FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(
      TimedFlow{id, src_host, dst_host, volume_mbit, release_epoch,
                deadline_epoch});
  return id;
}

long long TimedFlowSet::total_volume_mbit() const {
  long long total = 0;
  for (const TimedFlow& f : flows_) total += f.volume_mbit;
  return total;
}

TimedFlowSet make_timed_background_flows(const TimedFlowGenConfig& config,
                                         int count, Rng& rng) {
  if (config.epochs <= 0) throw std::invalid_argument("epochs must be > 0");
  const std::vector<std::pair<int, int>> pairs =
      background_endpoints(config.endpoints, count);

  const int min_window = std::clamp(config.min_window_epochs, 1, config.epochs);
  const int max_window =
      std::min(config.epochs, std::max(min_window, config.max_window_epochs));

  TimedFlowSet flows;
  for (const auto& [src, dst] : pairs) {
    // Fixed per-flow draw order: volume, window length, release epoch.
    double volume = static_cast<double>(config.mean_volume_mbit);
    if (config.volume_jitter > 0.0) {
      volume *= rng.uniform(1.0 - config.volume_jitter,
                            1.0 + config.volume_jitter);
    }
    const long long volume_mbit =
        std::max<long long>(1, static_cast<long long>(volume));
    const int window = static_cast<int>(
        rng.uniform_int(min_window, max_window));
    const int release = static_cast<int>(
        rng.uniform_int(0, config.epochs - window));
    flows.add(src, dst, volume_mbit, release, release + window - 1);
  }
  return flows;
}

}  // namespace eprons
