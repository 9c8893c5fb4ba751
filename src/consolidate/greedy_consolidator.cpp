#include "consolidate/greedy_consolidator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>

#include "obs/telemetry.h"
#include "topo/path_catalog.h"
#include "util/log.h"

namespace eprons {

namespace {

// Shared packing machinery for the cold and warm paths. One Packer is one
// consolidate() call: it owns the result masks and the per-arc residual
// capacities, and places flows one at a time with the FFD scoring rules.
// Everything is deterministic and single-threaded; concurrent
// consolidate() calls each build their own Packer.
struct Packer {
  const Topology& topo;
  const Graph& graph;
  const FlowSet& flows;
  const ConsolidationConfig& config;
  const GreedyConsolidatorOptions& options;

  ConsolidationResult result;
  /// Residual usable capacity per directed arc (2 slots per link).
  std::vector<Bandwidth> residual;
  bool overloaded = false;
  /// Set when !best_effort_overflow and a flow could not be placed; the
  /// caller returns an infeasible result with cleared paths.
  bool aborted = false;
  /// Scratch skip-mask over one pair's catalog paths (reused per place;
  /// filled only when a mask is set).
  std::vector<std::uint8_t> usable;

  Packer(const Topology& topo_in, const FlowSet& flows_in,
         const ConsolidationConfig& config_in,
         const GreedyConsolidatorOptions& options_in)
      : topo(topo_in),
        graph(topo_in.graph()),
        flows(flows_in),
        config(config_in),
        options(options_in) {
    result.switch_on.assign(graph.num_nodes(), false);
    result.link_on.assign(graph.num_links(), false);
    result.flow_paths.assign(flows.size(), {});
    for (const Node& n : graph.nodes()) {
      if (n.type == NodeType::Host) {
        result.switch_on[static_cast<std::size_t>(n.id)] = true;
      }
    }
    // Switches an earlier solve phase already powered cost nothing extra:
    // pre-marking them makes MinimizeSwitches score paths through them as
    // free, and they come back on in the returned mask.
    for (std::size_t i = 0;
         i < config.preactivated_switches.size() && i < result.switch_on.size();
         ++i) {
      if (config.preactivated_switches[i]) result.switch_on[i] = true;
    }
    residual.assign(graph.num_links() * 2, 0.0);
    for (const Link& l : graph.links()) {
      const Bandwidth usable =
          std::max(0.0, l.capacity - config.safety_margin);
      residual[static_cast<std::size_t>(l.id) * 2] = usable;
      residual[static_cast<std::size_t>(l.id) * 2 + 1] = usable;
    }
    // Load committed by an earlier phase eats into the usable headroom
    // before this pack places anything (may push an arc negative — no flow
    // fits there then, exactly as after an overflow placement).
    for (std::size_t slot = 0;
         slot < config.committed_arc_load.size() && slot < residual.size();
         ++slot) {
      residual[slot] -= config.committed_arc_load[slot];
    }
  }

  std::size_t arc_slot(const Path& path, std::size_t hop) const {
    const LinkId lid = graph.find_link(path[hop], path[hop + 1]);
    const bool forward = graph.link(lid).a == path[hop];
    return static_cast<std::size_t>(lid) * 2 + (forward ? 0 : 1);
  }

  // K reserves headroom in the switching fabric; host access links have no
  // routing alternative, so they are checked at the flow's unscaled demand
  // (otherwise any fan-in of more than capacity/(K*demand) latency-
  // sensitive flows would be spuriously unplaceable).
  Bandwidth arc_need(const Flow& flow, const Path& path,
                     std::size_t hop) const {
    const bool host_adjacent = !graph.is_switch(path[hop]) ||
                               !graph.is_switch(path[hop + 1]);
    return host_adjacent ? flow.demand
                         : flow.scaled_demand(config.scale_factor_k);
  }

  bool path_blocked(const Path& path) const {
    if (config.blocked_links.empty()) return false;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const LinkId lid = graph.find_link(path[h], path[h + 1]);
      if (config.blocked_links[static_cast<std::size_t>(lid)]) return true;
    }
    return false;
  }

  bool path_allowed(const Path& path) const {
    if (config.allowed_switches.empty()) return true;
    for (NodeId n : path) {
      if (graph.is_switch(n) &&
          !config.allowed_switches[static_cast<std::size_t>(n)]) {
        return false;
      }
    }
    return true;
  }

  bool path_fits(const Flow& flow, const Path& path) const {
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (residual[arc_slot(path, h)] + 1e-9 < arc_need(flow, path, h)) {
        return false;
      }
    }
    return true;
  }

  /// True once `best_score` can no longer be beaten, so the candidate
  /// scan may stop. A MinimizeSwitches score counts newly lit switches:
  /// never below 0, and a later path wins only by scoring strictly lower,
  /// so the first fitting path that lights nothing new is the winner of
  /// the full scan. BalanceLoad scores have no floor and scan everything.
  bool zero_cost_wins(double best_score) const {
    return options.objective == PlacementObjective::MinimizeSwitches &&
           best_score == 0.0;
  }

  /// Flow indices in first-fit-decreasing order of scaled demand.
  std::vector<std::size_t> ffd_order() const {
    std::vector<std::size_t> order(flows.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return flows[a].scaled_demand(config.scale_factor_k) >
                              flows[b].scaled_demand(config.scale_factor_k);
                     });
    return order;
  }

  /// Charges the flow's demand along `path` and turns the path on.
  void apply(std::size_t fi, const Path& path) {
    const Flow& flow = flows[fi];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      // May go negative on overflow.
      residual[arc_slot(path, h)] -= arc_need(flow, path, h);
    }
    result.flow_paths[fi] = path;
    activate_path(graph, path, result);
  }

  /// Charges the flow's demand along a catalog path and turns it on —
  /// apply() with every Graph lookup replaced by the precomputed arrays.
  void apply_cataloged(std::size_t fi, const CatalogPath& cp) {
    const Flow& flow = flows[fi];
    const Bandwidth scaled = flow.scaled_demand(config.scale_factor_k);
    const std::span<const std::uint32_t> arc_slots = cp.arc_slots();
    const std::span<const std::uint8_t> host_adjacent = cp.host_adjacent();
    for (std::size_t h = 0; h < arc_slots.size(); ++h) {
      // May go negative on overflow.
      residual[arc_slots[h]] -= host_adjacent[h] ? flow.demand : scaled;
    }
    const std::span<const NodeId> nodes = cp.nodes();
    result.flow_paths[fi].assign(nodes.begin(), nodes.end());
    for (NodeId n : nodes) {
      result.switch_on[static_cast<std::size_t>(n)] = true;
    }
    for (LinkId l : cp.links()) {
      result.link_on[static_cast<std::size_t>(l)] = true;
    }
  }

  /// Marks in `usable` the catalog paths that pass the allowed-switch and
  /// blocked-link masks; returns how many do.
  std::size_t mark_usable(const std::vector<CatalogPath>& cpaths) {
    usable.assign(cpaths.size(), 1);
    std::size_t usable_count = 0;
    for (std::size_t p = 0; p < cpaths.size(); ++p) {
      const CatalogPath& cp = cpaths[p];
      bool ok = true;
      if (!config.allowed_switches.empty()) {
        for (NodeId n : cp.switches()) {
          if (!config.allowed_switches[static_cast<std::size_t>(n)]) {
            ok = false;
            break;
          }
        }
      }
      if (ok && !config.blocked_links.empty()) {
        for (LinkId l : cp.links()) {
          if (config.blocked_links[static_cast<std::size_t>(l)]) {
            ok = false;
            break;
          }
        }
      }
      usable[p] = ok ? 1 : 0;
      if (ok) ++usable_count;
    }
    return usable_count;
  }

  /// place() against the memoized catalog: identical filtering, scoring and
  /// tie-break order as the enumerating path below — the mask skips exactly
  /// the paths active_paths() and the blocked-link erase would drop, and
  /// relative candidate order is preserved, so the same path wins.
  bool place_cataloged(std::size_t fi, obs::Counter& flows_placed) {
    const Flow& flow = flows[fi];
    const std::vector<CatalogPath>& cpaths =
        config.path_catalog->pair(flow.src_host, flow.dst_host);
    // With neither mask set, every path is usable and the filter is skipped.
    const bool filtered =
        !config.allowed_switches.empty() || !config.blocked_links.empty();
    const std::size_t usable_count =
        filtered ? mark_usable(cpaths) : cpaths.size();
    if (usable_count == 0) {
      // The restricted subnet disconnects this pair entirely.
      overloaded = true;
      result.feasible = false;
      if (!options.best_effort_overflow) {
        aborted = true;
        return false;
      }
      return true;
    }

    const Bandwidth scaled = flow.scaled_demand(config.scale_factor_k);
    std::size_t best = cpaths.size();
    double best_score = std::numeric_limits<double>::max();
    for (std::size_t p = 0; p < cpaths.size(); ++p) {
      if (filtered && !usable[p]) continue;
      const CatalogPath& cp = cpaths[p];
      const std::span<const std::uint32_t> arc_slots = cp.arc_slots();
      const std::span<const std::uint8_t> host_adjacent = cp.host_adjacent();
      bool fits = true;
      double min_headroom = std::numeric_limits<double>::infinity();
      for (std::size_t h = 0; h < arc_slots.size(); ++h) {
        const Bandwidth need = host_adjacent[h] ? flow.demand : scaled;
        const Bandwidth r = residual[arc_slots[h]];
        min_headroom = std::min(min_headroom, r - need);
        if (r + 1e-9 < need) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      double score;
      if (options.objective == PlacementObjective::MinimizeSwitches) {
        int new_switches = 0;
        for (NodeId n : cp.switches()) {
          if (!result.switch_on[static_cast<std::size_t>(n)]) ++new_switches;
        }
        score = new_switches;
      } else {
        score = -min_headroom;
      }
      if (score < best_score - 1e-12) {
        best_score = score;
        best = p;
        if (zero_cost_wins(score)) break;
      }
    }

    if (best == cpaths.size()) {
      if (!options.best_effort_overflow) {
        result.feasible = false;
        aborted = true;
        return false;
      }
      // Overflow fallback: the path with the largest bottleneck residual.
      overloaded = true;
      Bandwidth best_bottleneck = -std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < cpaths.size(); ++p) {
        if (filtered && !usable[p]) continue;
        Bandwidth bottleneck = std::numeric_limits<double>::infinity();
        for (std::uint32_t slot : cpaths[p].arc_slots()) {
          bottleneck = std::min(bottleneck, residual[slot]);
        }
        if (bottleneck > best_bottleneck) {
          best_bottleneck = bottleneck;
          best = p;
        }
      }
    }

    apply_cataloged(fi, cpaths[best]);
    flows_placed.add();
    return true;
  }

  /// Places one flow with the cold-path rules: enumerate candidate paths,
  /// score them (MinimizeSwitches or BalanceLoad), overflow-fallback when
  /// nothing fits. Returns false when the pack must be aborted
  /// (!best_effort_overflow and no candidate fits).
  bool place(std::size_t fi, obs::Counter& flows_placed) {
    if (config.path_catalog != nullptr) {
      return place_cataloged(fi, flows_placed);
    }
    const Flow& flow = flows[fi];
    std::vector<Path> candidates =
        config.allowed_switches.empty()
            ? topo.all_paths(flow.src_host, flow.dst_host)
            : topo.active_paths(flow.src_host, flow.dst_host,
                                config.allowed_switches);
    if (!config.blocked_links.empty()) {
      candidates.erase(
          std::remove_if(candidates.begin(), candidates.end(),
                         [&](const Path& p) { return path_blocked(p); }),
          candidates.end());
    }
    if (candidates.empty()) {
      // The restricted subnet disconnects this pair entirely.
      overloaded = true;
      result.feasible = false;
      if (!options.best_effort_overflow) {
        aborted = true;
        return false;
      }
      return true;
    }

    // Pick the best feasible path. MinimizeSwitches: fewest newly-activated
    // switches (consolidation); BalanceLoad: lowest resulting bottleneck
    // utilization (spreading). Ties go to the leftmost path.
    std::size_t best = candidates.size();
    double best_score = std::numeric_limits<double>::max();
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      const Path& path = candidates[p];
      bool fits = true;
      double min_headroom = std::numeric_limits<double>::infinity();
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const Bandwidth r = residual[arc_slot(path, h)];
        min_headroom = std::min(min_headroom, r - arc_need(flow, path, h));
        if (r + 1e-9 < arc_need(flow, path, h)) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      double score;
      if (options.objective == PlacementObjective::MinimizeSwitches) {
        int new_switches = 0;
        for (NodeId n : path) {
          if (graph.is_switch(n) &&
              !result.switch_on[static_cast<std::size_t>(n)]) {
            ++new_switches;
          }
        }
        score = new_switches;
      } else {
        // Most residual headroom after placement wins (negate: lower is
        // better).
        score = -min_headroom;
      }
      if (score < best_score - 1e-12) {
        best_score = score;
        best = p;
        if (zero_cost_wins(score)) break;
      }
    }

    if (best == candidates.size()) {
      if (!options.best_effort_overflow) {
        result.feasible = false;
        aborted = true;
        return false;
      }
      // Overflow fallback: the path with the largest bottleneck residual.
      overloaded = true;
      Bandwidth best_bottleneck = -std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < candidates.size(); ++p) {
        Bandwidth bottleneck = std::numeric_limits<double>::infinity();
        for (std::size_t h = 0; h + 1 < candidates[p].size(); ++h) {
          bottleneck =
              std::min(bottleneck, residual[arc_slot(candidates[p], h)]);
        }
        if (bottleneck > best_bottleneck) {
          best_bottleneck = bottleneck;
          best = p;
        }
      }
    }

    apply(fi, candidates[best]);
    flows_placed.add();
    return true;
  }

  /// Counts switches the result activates (hosts excluded).
  int active_switch_count() const {
    int count = 0;
    for (const Node& n : graph.nodes()) {
      if (is_switch_type(n.type) &&
          result.switch_on[static_cast<std::size_t>(n.id)]) {
        ++count;
      }
    }
    return count;
  }
};

}  // namespace

GreedyConsolidator::GreedyConsolidator(const Topology* topo,
                                       GreedyConsolidatorOptions options)
    : topo_(topo), options_(options) {}

ConsolidationResult GreedyConsolidator::consolidate(
    const FlowSet& flows, const ConsolidationConfig& config) const {
  return consolidate(*topo_, flows, config);
}

ConsolidationResult GreedyConsolidator::consolidate(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config) const {
  const obs::ScopedSpan span(obs::tracer(), "consolidate_greedy", "planner",
                             "k", config.scale_factor_k);
  static obs::Counter& calls =
      obs::metrics().counter("consolidate.greedy_calls");
  static obs::Counter& flows_placed =
      obs::metrics().counter("consolidate.flows_placed");
  static obs::Counter& overflows =
      obs::metrics().counter("consolidate.overflows");
  calls.add();

  Packer packer(topo, flows, config, options_);

  // First-fit decreasing on scaled demand.
  for (std::size_t fi : packer.ffd_order()) {
    if (!packer.place(fi, flows_placed)) break;
  }

  if (packer.aborted) {
    packer.result.flow_paths.assign(flows.size(), {});
    overflows.add();
    last_overloaded_.store(packer.overloaded, std::memory_order_relaxed);
    return std::move(packer.result);
  }

  if (packer.overloaded) overflows.add();
  last_overloaded_.store(packer.overloaded, std::memory_order_relaxed);
  packer.result.feasible = !packer.overloaded;
  if (options_.best_effort_overflow && packer.overloaded) {
    // Placement exists but violated the margin somewhere; callers treat
    // this as "infeasible at this K" for optimization purposes.
    packer.result.feasible = false;
  }
  finalize_result(packer.graph, config, packer.result);
  return std::move(packer.result);
}

ConsolidationResult GreedyConsolidator::consolidate_incremental(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  if (warm == nullptr || !warm->usable() || flows.empty()) {
    return consolidate(topo, flows, config);
  }
  const obs::ScopedSpan span(obs::tracer(), "consolidate_greedy_warm",
                             "planner", "k", config.scale_factor_k);
  static obs::Counter& warm_packs =
      obs::metrics().counter("consolidate.warm_packs");
  static obs::Counter& warm_fallbacks =
      obs::metrics().counter("consolidate.warm_fallbacks");
  static obs::Counter& flows_kept =
      obs::metrics().counter("consolidate.warm_flows_kept");
  static obs::Counter& flows_repacked =
      obs::metrics().counter("consolidate.warm_flows_repacked");
  static obs::Counter& flows_placed =
      obs::metrics().counter("consolidate.flows_placed");

  const DemandDelta delta = diff_demands(*warm->previous_flows, flows);

  // Dirty flows: added at their index (includes endpoint mismatches) or
  // with no routed previous path to inherit.
  std::vector<bool> dirty(flows.size(), false);
  for (FlowId i : delta.added) dirty[static_cast<std::size_t>(i)] = true;

  Packer packer(topo, flows, config, options_);

  // Keep phase: in FFD order, re-apply the previous routing to every clean
  // flow whose inherited path is still legal (allowed subnet, no blocked
  // link) and still fits at the new scaled demand. Resized flows keep
  // their path too when it still fits — that is the whole point of
  // incremental planning: a 1% demand wiggle re-routes nothing. Flows
  // whose inherited path fails any check join the dirty set.
  const std::vector<std::size_t> order = packer.ffd_order();
  std::uint64_t kept = 0;
  for (std::size_t fi : order) {
    if (dirty[fi]) continue;
    const Path& previous_path = warm->previous->flow_paths[fi];
    const Flow& flow = flows[fi];
    const bool inheritable =
        !previous_path.empty() && packer.path_allowed(previous_path) &&
        !packer.path_blocked(previous_path) &&
        packer.path_fits(flow, previous_path);
    if (inheritable) {
      packer.apply(fi, previous_path);
      flows_placed.add();
      ++kept;
    } else {
      dirty[fi] = true;
    }
  }

  // Re-pack phase: only the dirty flows, with the normal cold-path rules,
  // on top of the kept routing.
  std::uint64_t repacked = 0;
  for (std::size_t fi : order) {
    if (!dirty[fi]) continue;
    ++repacked;
    if (!packer.place(fi, flows_placed)) break;
  }

  // Regression bound: the incremental plan must stay within
  // max_extra_switches of the previous plan and must not have overflowed —
  // otherwise a full cold re-pack is both the quality reference and the
  // recovery path.
  const int active = packer.active_switch_count();
  const int bound = warm->previous->active_switches + warm->max_extra_switches;
  if (packer.aborted || packer.overloaded || active > bound) {
    warm_fallbacks.add();
    EPRONS_LOG(Info) << "greedy warm-start abandoned (active=" << active
                     << " bound=" << bound << " overloaded="
                     << (packer.overloaded ? "yes" : "no")
                     << "); falling back to a full re-pack";
    return consolidate(topo, flows, config);
  }

  warm_packs.add();
  flows_kept.add(kept);
  flows_repacked.add(repacked);
  last_overloaded_.store(false, std::memory_order_relaxed);
  packer.result.feasible = true;
  packer.result.warm_started = true;
  finalize_result(packer.graph, config, packer.result);
  EPRONS_LOG(Debug) << "greedy warm-start kept " << kept << " paths, "
                    << "re-packed " << repacked << " dirty flows ("
                    << delta.added.size() << " added, "
                    << delta.resized.size() << " resized, "
                    << delta.removed.size() << " removed)";
  return std::move(packer.result);
}

}  // namespace eprons
