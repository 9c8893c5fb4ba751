#include "consolidate/hierarchical_consolidator.h"

#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "util/log.h"

namespace eprons {

namespace {

/// Bucket key per flow: the pod index for intra-pod flows, kInterBucket
/// for flows whose endpoints live in different pods.
constexpr int kInterBucket = -1;

int bucket_of(const FatTree& ft, const Flow& flow) {
  const int src_pod = ft.pod_of_host(flow.src_host);
  const int dst_pod = ft.pod_of_host(flow.dst_host);
  return src_pod == dst_pod ? src_pod : kInterBucket;
}

struct Partition {
  /// Original flow indices per pod, in flow-set order.
  std::vector<std::vector<std::size_t>> pod;
  /// Original indices of the inter-pod flows, in flow-set order.
  std::vector<std::size_t> inter;
};

Partition partition_flows(const FatTree& ft, const FlowSet& flows) {
  Partition part;
  part.pod.resize(static_cast<std::size_t>(ft.num_pods()));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const int bucket = bucket_of(ft, flows[i]);
    if (bucket == kInterBucket) {
      part.inter.push_back(i);
    } else {
      part.pod[static_cast<std::size_t>(bucket)].push_back(i);
    }
  }
  return part;
}

FlowSet subset(const FlowSet& flows, const std::vector<std::size_t>& indices) {
  FlowSet sub;
  for (std::size_t i : indices) {
    const Flow& f = flows[i];
    sub.add(f.src_host, f.dst_host, f.demand, f.cls);
  }
  return sub;
}

/// a := a AND b (b empty means "everything allowed" and leaves a alone).
void intersect_mask(std::vector<bool>& a, const std::vector<bool>& b) {
  if (b.empty()) return;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = a[i] && i < b.size() && b[i];
  }
}

void merge_mask(std::vector<bool>& into, const std::vector<bool>& from) {
  if (into.size() < from.size()) into.resize(from.size(), false);
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i]) into[i] = true;
  }
}

/// Charges `flow` routed on `path` into the per-directed-arc committed
/// load, mirroring the packer's arc_need exactly: host-adjacent hops at
/// the unscaled demand, fabric hops at the K-scaled demand.
void charge_path(const Graph& graph, const Flow& flow, const Path& path,
                 double scale_factor_k, std::vector<Bandwidth>& committed) {
  for (std::size_t h = 0; h + 1 < path.size(); ++h) {
    const LinkId lid = graph.find_link(path[h], path[h + 1]);
    const bool forward = graph.link(lid).a == path[h];
    const bool host_adjacent =
        !graph.is_switch(path[h]) || !graph.is_switch(path[h + 1]);
    committed[static_cast<std::size_t>(lid) * 2 + (forward ? 0u : 1u)] +=
        host_adjacent ? flow.demand : flow.scaled_demand(scale_factor_k);
  }
}

/// The slice of a previous placement covering one bucket's flows, shaped
/// so WarmStartHint::usable() holds: flow_paths index-aligned with the
/// bucket's sub flow set. active_switches carries the bucket-local count
/// (the inner consolidator's advisory regression bound).
struct BucketHint {
  FlowSet previous_flows;
  ConsolidationResult previous;
  WarmStartHint hint;
};

void build_bucket_hint(const WarmStartHint& warm,
                       const std::vector<std::size_t>& indices,
                       int active_switches, BucketHint& out) {
  out.previous_flows = subset(*warm.previous_flows, indices);
  out.previous.feasible = warm.previous->feasible;
  out.previous.flow_paths.reserve(indices.size());
  for (std::size_t i : indices) {
    out.previous.flow_paths.push_back(warm.previous->flow_paths[i]);
  }
  out.previous.active_switches = active_switches;
  out.hint.previous_flows = &out.previous_flows;
  out.hint.previous = &out.previous;
  out.hint.max_extra_switches = warm.max_extra_switches;
}

int masked_active_switches(const Graph& graph, const std::vector<bool>& on,
                           const std::vector<bool>& mask) {
  int count = 0;
  for (const Node& n : graph.nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    if (is_switch_type(n.type) && i < on.size() && on[i] &&
        (mask.empty() || (i < mask.size() && mask[i]))) {
      ++count;
    }
  }
  return count;
}

}  // namespace

HierarchicalConsolidator::HierarchicalConsolidator(
    const Consolidator* inner, HierarchicalConsolidatorOptions options)
    : inner_(inner), options_(options) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
}

ConsolidationResult HierarchicalConsolidator::consolidate(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config) const {
  const FatTree* ft = dynamic_cast<const FatTree*>(&topo);
  if (ft == nullptr) {
    // No pod structure to exploit; solve flat.
    return inner().consolidate(topo, flows, config);
  }
  return solve(*ft, flows, config, nullptr);
}

ConsolidationResult HierarchicalConsolidator::consolidate_incremental(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  const FatTree* ft = dynamic_cast<const FatTree*>(&topo);
  if (ft == nullptr) {
    return inner().consolidate_incremental(topo, flows, config, warm);
  }
  if (warm == nullptr || !warm->usable() || flows.empty()) {
    return solve(*ft, flows, config, nullptr);
  }
  return solve(*ft, flows, config, warm);
}

ConsolidationResult HierarchicalConsolidator::solve(
    const FatTree& ft, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  const obs::ScopedSpan span(obs::tracer(), "consolidate_hierarchical",
                             "planner", "k", config.scale_factor_k);
  static obs::Counter& calls =
      obs::metrics().counter("consolidate.hierarchical_calls");
  static obs::Counter& pod_solves =
      obs::metrics().counter("consolidate.hierarchical_pod_solves");
  static obs::Counter& warm_partition_misses =
      obs::metrics().counter("consolidate.hierarchical_warm_partition_miss");
  calls.add();

  const Graph& graph = ft.graph();
  const std::size_t pods = static_cast<std::size_t>(ft.num_pods());
  const Partition part = partition_flows(ft, flows);

  // Warm sub-hints only line up when every flow index kept its bucket.
  bool warm_ok =
      warm != nullptr && warm->usable() &&
      warm->previous_flows->size() == flows.size();
  if (warm_ok) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (bucket_of(ft, (*warm->previous_flows)[i]) !=
          bucket_of(ft, flows[i])) {
        warm_ok = false;
        warm_partition_misses.add();
        EPRONS_LOG(Debug) << "hierarchical warm-start dropped: flow " << i
                          << " changed pod bucket; cold decomposed solve";
        break;
      }
    }
  }

  // Phase 1+2: per-pod sub-instances. Pods are link-disjoint (intra-pod
  // candidate paths never leave the pod), so the solves are independent;
  // each iteration writes only its own slot and the merge below is serial
  // in pod order — bit-identical results for any thread count.
  std::vector<FlowSet> pod_flows(pods);
  std::vector<ConsolidationConfig> pod_configs(pods);
  std::vector<BucketHint> pod_hints(warm_ok ? pods : 0);
  for (std::size_t p = 0; p < pods; ++p) {
    if (part.pod[p].empty()) continue;
    pod_flows[p] = subset(flows, part.pod[p]);
    ConsolidationConfig sub = config;
    std::vector<bool> allowed = ft.pod_switch_mask(static_cast<int>(p));
    intersect_mask(allowed, config.allowed_switches);
    sub.allowed_switches = std::move(allowed);
    pod_configs[p] = std::move(sub);
    if (warm_ok) {
      build_bucket_hint(
          *warm, part.pod[p],
          masked_active_switches(graph, warm->previous->switch_on,
                                 pod_configs[p].allowed_switches),
          pod_hints[p]);
    }
  }

  std::vector<ConsolidationResult> pod_results(pods);
  parallel_for(pool_.get(), pods, [&](std::size_t p) {
    if (part.pod[p].empty()) return;
    pod_solves.add();
    pod_results[p] =
        warm_ok ? inner().consolidate_incremental(ft, pod_flows[p],
                                                  pod_configs[p],
                                                  &pod_hints[p].hint)
                : inner().consolidate(ft, pod_flows[p], pod_configs[p]);
  });

  // Serial merge in pod order: stitch masks and paths, charge every placed
  // pod path into the committed load the core phase packs around, then
  // move it into the stitched result (the pod results are not read again).
  ConsolidationResult result;
  result.switch_on.assign(static_cast<std::size_t>(graph.num_nodes()), false);
  result.link_on.assign(static_cast<std::size_t>(graph.num_links()), false);
  result.flow_paths.assign(flows.size(), {});
  for (const Node& n : graph.nodes()) {
    if (n.type == NodeType::Host) {
      result.switch_on[static_cast<std::size_t>(n.id)] = true;
    }
  }

  std::vector<Bandwidth> committed = config.committed_arc_load;
  committed.resize(static_cast<std::size_t>(graph.num_links()) * 2, 0.0);

  bool feasible = true;
  bool any_warm = false;
  for (std::size_t p = 0; p < pods; ++p) {
    if (part.pod[p].empty()) continue;
    ConsolidationResult& pr = pod_results[p];
    feasible = feasible && pr.feasible;
    any_warm = any_warm || pr.warm_started;
    merge_mask(result.switch_on, pr.switch_on);
    merge_mask(result.link_on, pr.link_on);
    for (std::size_t j = 0; j < part.pod[p].size(); ++j) {
      const std::size_t orig = part.pod[p][j];
      if (j >= pr.flow_paths.size() || pr.flow_paths[j].size() < 2) continue;
      charge_path(graph, flows[orig], pr.flow_paths[j],
                  config.scale_factor_k, committed);
      result.flow_paths[orig] = std::move(pr.flow_paths[j]);
    }
  }

  // Phase 3: the core-level instance over the inter-pod flows, packing
  // into the headroom the pod phases left and preferring switches they
  // already lit (zero marginal power).
  FlowSet inter_flows = subset(flows, part.inter);
  ConsolidationConfig core_config = config;
  core_config.committed_arc_load = std::move(committed);
  core_config.preactivated_switches = result.switch_on;
  BucketHint core_hint;
  if (warm_ok) {
    build_bucket_hint(*warm, part.inter, warm->previous->active_switches,
                      core_hint);
  }
  ConsolidationResult core =
      warm_ok ? inner().consolidate_incremental(ft, inter_flows, core_config,
                                                &core_hint.hint)
              : inner().consolidate(ft, inter_flows, core_config);
  feasible = feasible && core.feasible;
  any_warm = any_warm || core.warm_started;
  merge_mask(result.switch_on, core.switch_on);
  merge_mask(result.link_on, core.link_on);
  for (std::size_t j = 0; j < part.inter.size(); ++j) {
    if (j >= core.flow_paths.size() || core.flow_paths[j].size() < 2) continue;
    result.flow_paths[part.inter[j]] = std::move(core.flow_paths[j]);
  }

  result.feasible = feasible;
  result.warm_started = warm_ok && any_warm;
  // finalize_result re-derives the per-layer counts and defines
  // network_power as their fixed-order sum — the attribution exact-sum
  // invariant holds for the stitched plan exactly as for a flat one.
  finalize_result(graph, config, result);
  return result;
}

}  // namespace eprons
