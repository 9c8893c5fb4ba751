#include "consolidate/consolidation.h"

#include <cstring>

namespace eprons {

namespace {

inline std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

}  // namespace

void finalize_result(const Graph& graph, const ConsolidationConfig& config,
                     ConsolidationResult& result) {
  result.active_switches = 0;
  result.active_links = 0;
  result.edge_switches = 0;
  result.agg_switches = 0;
  result.core_switches = 0;
  for (const Node& n : graph.nodes()) {
    if (!is_switch_type(n.type) ||
        !result.switch_on[static_cast<std::size_t>(n.id)]) {
      continue;
    }
    ++result.active_switches;
    switch (n.type) {
      case NodeType::EdgeSwitch: ++result.edge_switches; break;
      case NodeType::AggSwitch: ++result.agg_switches; break;
      case NodeType::CoreSwitch: ++result.core_switches; break;
      case NodeType::Host: break;
    }
  }
  for (const Link& l : graph.links()) {
    if (result.link_on[static_cast<std::size_t>(l.id)]) ++result.active_links;
  }
  // The headline network power is *defined* as the fixed-order sum of the
  // per-layer components so the attribution ledger sums bit-identically to
  // the total for any thread count (see obs/attribution.h).
  result.edge_power_w = result.edge_switches * config.switch_power;
  result.agg_power_w = result.agg_switches * config.switch_power;
  result.core_power_w = result.core_switches * config.switch_power;
  result.link_power_w = result.active_links * config.link_power;
  result.network_power =
      ((result.edge_power_w + result.agg_power_w) + result.core_power_w) +
      result.link_power_w;
}

std::uint64_t placement_fingerprint(const ConsolidationResult& result) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.feasible ? 1 : 0));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.switch_on.size()));
  for (std::size_t i = 0; i < result.switch_on.size(); ++i) {
    if (result.switch_on[i]) hash = fnv1a(hash, static_cast<std::uint64_t>(i));
  }
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.link_on.size()));
  for (std::size_t i = 0; i < result.link_on.size(); ++i) {
    if (result.link_on[i]) hash = fnv1a(hash, static_cast<std::uint64_t>(i));
  }
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.flow_paths.size()));
  for (const Path& path : result.flow_paths) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(path.size()));
    for (NodeId n : path) hash = fnv1a(hash, static_cast<std::uint64_t>(n));
  }
  hash = fnv1a(hash, result.network_power);
  return hash;
}

void activate_path(const Graph& graph, const Path& path,
                   ConsolidationResult& result) {
  for (NodeId n : path) {
    result.switch_on[static_cast<std::size_t>(n)] = true;
  }
  for (LinkId l : graph.path_links(path)) {
    result.link_on[static_cast<std::size_t>(l)] = true;
  }
}

}  // namespace eprons
