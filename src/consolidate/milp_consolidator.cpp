#include "consolidate/milp_consolidator.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/telemetry.h"
#include "topo/path_catalog.h"
#include "util/log.h"
#include "util/strings.h"

namespace eprons {

namespace {

// The path-formulation MILP plus the variable maps needed to seed or
// extract a solution. Built identically by the cold and warm paths so a
// warm incumbent lines up with the model's variable order.
struct PathMilp {
  lp::Model model{lp::Sense::Minimize};
  std::vector<int> y_var;                  // per NodeId (-1 for hosts)
  std::vector<int> x_var;                  // per LinkId
  std::vector<std::vector<int>> z_vars;    // per flow, per candidate path
  std::vector<std::vector<Path>> flow_paths;
};

PathMilp build_path_milp(const Topology& topo, const FlowSet& flows,
                         const ConsolidationConfig& config) {
  const Graph& graph = topo.graph();
  PathMilp milp;
  lp::Model& model = milp.model;

  // Y_u per switch, X_l per link.
  milp.y_var.assign(graph.num_nodes(), -1);
  for (const Node& n : graph.nodes()) {
    if (is_switch_type(n.type)) {
      // Switches an earlier solve phase already powered are free here — the
      // hierarchical core phase should prefer pod-lit aggregation switches
      // over waking new ones.
      const std::size_t ni = static_cast<std::size_t>(n.id);
      const bool preactivated = ni < config.preactivated_switches.size() &&
                                config.preactivated_switches[ni];
      const int y = model.add_binary(strformat("Y_%s", n.name.c_str()),
                                     preactivated ? 0.0 : config.switch_power);
      milp.y_var[static_cast<std::size_t>(n.id)] = y;
      // Subnet restriction: pin disallowed switches off.
      if (!config.allowed_switches.empty() &&
          !config.allowed_switches[static_cast<std::size_t>(n.id)]) {
        model.variable(y).upper = 0.0;
      }
    }
  }
  milp.x_var.assign(graph.num_links(), -1);
  for (const Link& l : graph.links()) {
    milp.x_var[static_cast<std::size_t>(l.id)] =
        model.add_binary(strformat("X_%d", l.id), config.link_power);
    // Fault overlay: pin down links off. Capacity rows (and the z<=x rows
    // for zero-demand flows) then exclude every path crossing them.
    if (!config.blocked_links.empty() &&
        config.blocked_links[static_cast<std::size_t>(l.id)]) {
      model.variable(milp.x_var[static_cast<std::size_t>(l.id)]).upper = 0.0;
    }
    // Eq. (7): a link can only be on if both switch endpoints are on.
    for (NodeId end : {l.a, l.b}) {
      if (graph.is_switch(end)) {
        model.add_row(strformat("link%d_needs_%s", l.id,
                                graph.node(end).name.c_str()),
                      lp::RowType::LessEqual, 0.0,
                      {{milp.x_var[static_cast<std::size_t>(l.id)], 1.0},
                       {milp.y_var[static_cast<std::size_t>(end)], -1.0}});
      }
    }
  }

  // Z_{i,p} per flow path, and per-directed-arc demand accumulation.
  // Directed arc key: (link id, forward?) where forward means a->b.
  std::map<std::pair<LinkId, bool>, std::vector<lp::RowEntry>> arc_demand;
  milp.z_vars.resize(flows.size());
  milp.flow_paths.resize(flows.size());

  // As in the greedy heuristic, K reserves fabric headroom only: arcs
  // touching a host are charged the unscaled demand (no routing choice
  // exists there).
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& flow = flows[i];
    // The memoized catalog (when wired in) carries the same enumeration in
    // the same order, with the per-hop link/direction lookups precomputed.
    const std::vector<CatalogPath>* cataloged =
        config.path_catalog != nullptr
            ? &config.path_catalog->pair(flow.src_host, flow.dst_host)
            : nullptr;
    if (cataloged != nullptr) {
      milp.flow_paths[i].reserve(cataloged->size());
      for (const CatalogPath& cp : *cataloged) {
        milp.flow_paths[i].emplace_back(cp.nodes().begin(), cp.nodes().end());
      }
    } else {
      milp.flow_paths[i] = topo.all_paths(flow.src_host, flow.dst_host);
    }
    const double scaled = flow.scaled_demand(config.scale_factor_k);
    std::vector<lp::RowEntry> choose;
    for (std::size_t p = 0; p < milp.flow_paths[i].size(); ++p) {
      const int z = model.add_binary(
          strformat("Z_f%zu_p%zu", i, p), 0.0);
      milp.z_vars[i].push_back(z);
      choose.push_back({z, 1.0});
      const Path& path = milp.flow_paths[i][p];
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const LinkId lid = cataloged != nullptr
                               ? (*cataloged)[p].links()[h]
                               : graph.find_link(path[h], path[h + 1]);
        const bool forward = cataloged != nullptr
                                 ? ((*cataloged)[p].arc_slots()[h] & 1u) == 0u
                                 : graph.link(lid).a == path[h];
        const bool host_adjacent =
            cataloged != nullptr
                ? (*cataloged)[p].host_adjacent()[h] != 0
                : !graph.is_switch(path[h]) || !graph.is_switch(path[h + 1]);
        const double arc_load = host_adjacent ? flow.demand : scaled;
        if (arc_load > 0.0) {
          arc_demand[{lid, forward}].push_back({z, arc_load});
        } else {
          // Zero-demand flows still require their path to be powered on.
          arc_demand[{lid, forward}];  // ensure the arc row exists
          model.add_row(strformat("f%zu_p%zu_on_%d", i, p, lid),
                        lp::RowType::LessEqual, 0.0,
                        {{z, 1.0},
                         {milp.x_var[static_cast<std::size_t>(lid)], -1.0}});
        }
      }
    }
    // Eq. (6)+(9): exactly one path (unsplittable routing).
    model.add_row(strformat("route_f%zu", i), lp::RowType::Equal, 1.0,
                  std::move(choose));
  }

  // Eq. (4): per-directed-arc capacity gated by the link's X. Load an
  // earlier solve phase committed on the arc shrinks the usable headroom
  // (possibly to zero or below, which pins every positive-demand path off
  // that arc).
  for (auto& [arc, entries] : arc_demand) {
    if (entries.empty()) continue;
    const Link& l = graph.link(arc.first);
    Bandwidth usable = l.capacity - config.safety_margin;
    const std::size_t slot =
        static_cast<std::size_t>(arc.first) * 2 + (arc.second ? 0 : 1);
    if (slot < config.committed_arc_load.size()) {
      usable -= config.committed_arc_load[slot];
    }
    std::vector<lp::RowEntry> row = entries;
    row.push_back({milp.x_var[static_cast<std::size_t>(arc.first)], -usable});
    model.add_row(strformat("cap_l%d_%c", arc.first, arc.second ? 'f' : 'r'),
                  lp::RowType::LessEqual, 0.0, std::move(row));
  }
  return milp;
}

/// The previous epoch's integer assignment expressed in this model's
/// variable order: one Z per flow (the inherited path when the delta left
/// the flow clean, the leftmost path otherwise), X for every link a chosen
/// path uses, Y for every switch those links touch. The solver validates
/// the vector against the model before adopting it, so a hint made stale
/// by shrunk capacity or pinned-off switches is simply ignored.
std::vector<double> build_incumbent_hint(const Graph& graph,
                                         const FlowSet& flows,
                                         const PathMilp& milp,
                                         const WarmStartHint& warm) {
  const DemandDelta delta = diff_demands(*warm.previous_flows, flows);
  std::vector<bool> dirty(flows.size(), false);
  for (FlowId i : delta.added) dirty[static_cast<std::size_t>(i)] = true;

  std::vector<double> hint(
      static_cast<std::size_t>(milp.model.num_variables()), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::vector<Path>& candidates = milp.flow_paths[i];
    if (candidates.empty()) return {};  // model is infeasible anyway
    std::size_t chosen = 0;
    if (!dirty[i]) {
      const Path& previous_path = warm.previous->flow_paths[i];
      const auto it =
          std::find(candidates.begin(), candidates.end(), previous_path);
      if (it != candidates.end()) {
        chosen = static_cast<std::size_t>(it - candidates.begin());
      }
    }
    hint[static_cast<std::size_t>(milp.z_vars[i][chosen])] = 1.0;
    const Path& path = candidates[chosen];
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const LinkId lid = graph.find_link(path[h], path[h + 1]);
      hint[static_cast<std::size_t>(
          milp.x_var[static_cast<std::size_t>(lid)])] = 1.0;
      for (NodeId end : {graph.link(lid).a, graph.link(lid).b}) {
        if (graph.is_switch(end)) {
          hint[static_cast<std::size_t>(
              milp.y_var[static_cast<std::size_t>(end)])] = 1.0;
        }
      }
    }
  }
  return hint;
}

ConsolidationResult extract_solution(const Graph& graph, const FlowSet& flows,
                                     const ConsolidationConfig& config,
                                     const PathMilp& milp,
                                     const lp::Solution& sol) {
  ConsolidationResult result;
  result.switch_on.assign(graph.num_nodes(), false);
  result.link_on.assign(graph.num_links(), false);
  for (const Node& n : graph.nodes()) {
    if (n.type == NodeType::Host) {
      result.switch_on[static_cast<std::size_t>(n.id)] = true;
    }
  }
  for (std::size_t i = 0;
       i < config.preactivated_switches.size() && i < result.switch_on.size();
       ++i) {
    if (config.preactivated_switches[i]) result.switch_on[i] = true;
  }
  if (!sol.ok()) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;
  result.flow_paths.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t p = 0; p < milp.z_vars[i].size(); ++p) {
      if (sol.x[static_cast<std::size_t>(milp.z_vars[i][p])] > 0.5) {
        result.flow_paths[i] = milp.flow_paths[i][p];
        break;
      }
    }
  }
  // Derive masks from the chosen paths (not raw X/Y, which the solver could
  // leave on without traffic in degenerate zero-cost cases).
  for (const Path& path : result.flow_paths) {
    activate_path(graph, path, result);
  }
  finalize_result(graph, config, result);
  return result;
}

ConsolidationResult empty_flows_result(const Graph& graph,
                                       const ConsolidationConfig& config) {
  ConsolidationResult result;
  result.switch_on.assign(graph.num_nodes(), false);
  result.link_on.assign(graph.num_links(), false);
  for (const Node& n : graph.nodes()) {
    if (n.type == NodeType::Host) {
      result.switch_on[static_cast<std::size_t>(n.id)] = true;
    }
  }
  for (std::size_t i = 0;
       i < config.preactivated_switches.size() && i < result.switch_on.size();
       ++i) {
    if (config.preactivated_switches[i]) result.switch_on[i] = true;
  }
  result.feasible = true;
  result.flow_paths.clear();
  finalize_result(graph, config, result);
  return result;
}

}  // namespace

MilpConsolidator::MilpConsolidator(const Topology* topo,
                                   MilpConsolidatorOptions options)
    : topo_(topo), options_(options) {}

ConsolidationResult MilpConsolidator::consolidate(
    const FlowSet& flows, const ConsolidationConfig& config) const {
  return consolidate(*topo_, flows, config);
}

ConsolidationResult MilpConsolidator::consolidate(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config) const {
  return solve_impl(topo, flows, config, nullptr);
}

ConsolidationResult MilpConsolidator::consolidate_incremental(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  if (warm == nullptr || !warm->usable() || flows.empty()) {
    return consolidate(topo, flows, config);
  }
  return solve_impl(topo, flows, config, warm);
}

ConsolidationResult MilpConsolidator::solve_impl(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  const obs::ScopedSpan span(obs::tracer(), "consolidate_milp", "planner",
                             "k", config.scale_factor_k);
  static obs::Counter& calls =
      obs::metrics().counter("consolidate.milp_calls");
  static obs::Counter& nodes =
      obs::metrics().counter("consolidate.milp_nodes");
  static obs::Counter& warm_seeded =
      obs::metrics().counter("consolidate.milp_warm_seeded");
  static obs::Counter& warm_rejected =
      obs::metrics().counter("consolidate.milp_warm_rejected");
  calls.add();

  const Graph& graph = topo.graph();
  if (flows.empty()) return empty_flows_result(graph, config);

  const PathMilp milp = build_path_milp(topo, flows, config);

  std::vector<double> hint;
  if (warm != nullptr) {
    hint = build_incumbent_hint(graph, flows, milp, *warm);
  }

  lp::MilpSolver solver(options_.milp);
  const lp::Solution sol =
      solver.solve(milp.model, hint.empty() ? nullptr : &hint);
  last_nodes_.store(solver.last_node_count(), std::memory_order_relaxed);
  nodes.add(static_cast<std::uint64_t>(
      std::max<long long>(0, solver.last_node_count())));
  if (warm != nullptr) {
    if (solver.last_warm_start_used()) {
      warm_seeded.add();
    } else {
      warm_rejected.add();
      EPRONS_LOG(Debug) << "milp warm-start incumbent rejected (stale or "
                           "infeasible under the new demands); cold solve";
    }
  }

  ConsolidationResult result = extract_solution(graph, flows, config, milp,
                                                sol);
  result.warm_started = warm != nullptr && solver.last_warm_start_used();
  return result;
}

}  // namespace eprons
