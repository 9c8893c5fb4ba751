#include "flow/demand_delta.h"

#include <algorithm>

namespace eprons {

DemandDelta diff_demands(const FlowSet& previous, const FlowSet& next) {
  DemandDelta delta;
  const std::size_t overlap = std::min(previous.size(), next.size());
  for (std::size_t i = 0; i < overlap; ++i) {
    const Flow& p = previous[i];
    const Flow& n = next[i];
    if (p.src_host != n.src_host || p.dst_host != n.dst_host ||
        p.cls != n.cls) {
      delta.removed.push_back(static_cast<FlowId>(i));
      delta.added.push_back(static_cast<FlowId>(i));
    } else if (p.demand != n.demand) {
      delta.resized.push_back(static_cast<FlowId>(i));
    } else {
      ++delta.unchanged;
    }
  }
  for (std::size_t i = overlap; i < previous.size(); ++i) {
    delta.removed.push_back(static_cast<FlowId>(i));
  }
  for (std::size_t i = overlap; i < next.size(); ++i) {
    delta.added.push_back(static_cast<FlowId>(i));
  }
  return delta;
}

}  // namespace eprons
