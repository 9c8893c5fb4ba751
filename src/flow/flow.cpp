#include "flow/flow.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace eprons {

const char* flow_class_name(FlowClass cls) {
  switch (cls) {
    case FlowClass::LatencySensitive: return "latency-sensitive";
    case FlowClass::LatencyTolerant: return "latency-tolerant";
  }
  return "?";
}

FlowId FlowSet::add(int src_host, int dst_host, Bandwidth demand,
                    FlowClass cls) {
  if (src_host == dst_host) {
    throw std::invalid_argument("flow endpoints must differ");
  }
  if (demand < 0.0) throw std::invalid_argument("negative demand");
  const FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(Flow{id, src_host, dst_host, demand, cls});
  return id;
}

Bandwidth FlowSet::total_demand(double k) const {
  Bandwidth total = 0.0;
  for (const Flow& f : flows_) total += f.scaled_demand(k);
  return total;
}

std::size_t FlowSet::count(FlowClass cls) const {
  std::size_t n = 0;
  for (const Flow& f : flows_) {
    if (f.cls == cls) ++n;
  }
  return n;
}

std::vector<std::pair<int, int>> background_endpoints(
    const FlowGenConfig& config, int count) {
  if (count > config.num_hosts) count = config.num_hosts;
  if (count <= 0) return {};
  const int hpe = config.hosts_per_edge > 0 ? config.hosts_per_edge : 1;
  const int num_edges = (config.num_hosts + hpe - 1) / hpe;

  // Edge-major source order: first one host from every edge switch, then
  // the second host of every edge, ... so up to `num_edges` elephants hit
  // distinct edge uplinks.
  std::vector<int> sources;
  sources.reserve(static_cast<std::size_t>(count));
  for (int offset = 0; offset < hpe && static_cast<int>(sources.size()) < count;
       ++offset) {
    for (int edge = 0;
         edge < num_edges && static_cast<int>(sources.size()) < count;
         ++edge) {
      const int host = edge * hpe + offset;
      const bool excluded = config.exclude_host >= 0 &&
                            host / hpe == config.exclude_host / hpe;
      if (host < config.num_hosts && !excluded) sources.push_back(host);
    }
  }
  // Destinations: half the host space away (a different pod on a fat-tree),
  // so no host receives two elephants either.
  std::vector<std::pair<int, int>> pairs(sources.size());
  std::vector<char> taken(static_cast<std::size_t>(config.num_hosts), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    int dst = (sources[i] + config.num_hosts / 2) % config.num_hosts;
    // Keep destinations unique and off the excluded edge group so no host
    // downlink carries two elephants.
    while (dst == sources[i] || taken[static_cast<std::size_t>(dst)] ||
           (config.exclude_host >= 0 &&
            dst / hpe == config.exclude_host / hpe)) {
      dst = (dst + 1) % config.num_hosts;
    }
    taken[static_cast<std::size_t>(dst)] = 1;
    pairs[i] = {sources[i], dst};
  }
  return pairs;
}

FlowSet make_background_flows(const FlowGenConfig& config, int count,
                              double utilization_of_capacity, double jitter,
                              Rng& rng) {
  const std::vector<std::pair<int, int>> pairs =
      background_endpoints(config, count);
  FlowSet flows;
  for (const auto& [src, dst] : pairs) {
    double fraction = utilization_of_capacity;
    if (jitter > 0.0) {
      fraction *= rng.uniform(1.0 - jitter, 1.0 + jitter);
    }
    if (fraction < 0.0) fraction = 0.0;
    flows.add(src, dst, fraction * config.link_capacity,
              FlowClass::LatencyTolerant);
  }
  return flows;
}

QueryFlows add_query_flows(FlowSet& flows, int aggregator_host, int num_hosts,
                           Bandwidth request_demand, Bandwidth reply_demand) {
  QueryFlows ids;
  ids.request.assign(static_cast<std::size_t>(num_hosts), kInvalidFlow);
  ids.reply.assign(static_cast<std::size_t>(num_hosts), kInvalidFlow);
  for (int h = 0; h < num_hosts; ++h) {
    if (h == aggregator_host) continue;
    const auto slot = static_cast<std::size_t>(h);
    ids.request[slot] = flows.add(aggregator_host, h, request_demand,
                                  FlowClass::LatencySensitive);
    ids.reply[slot] = flows.add(h, aggregator_host, reply_demand,
                                FlowClass::LatencySensitive);
  }
  return ids;
}

}  // namespace eprons
