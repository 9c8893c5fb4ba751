// Shared types for latency-aware traffic consolidation (paper section II/IV).
//
// A consolidator takes (topology, flow set, scale factor K, safety margin)
// and returns which switches/links stay on and which path each flow takes.
// Two implementations exist:
//   * MilpConsolidator  — exact, solves the paper's optimization model
//     (eqs. (2)-(9)) with path-choice binaries via branch-and-bound.
//   * GreedyConsolidator — the paper's production fallback ("heuristic
//     algorithm similar to the greedy bin-packing algorithm in [2]").
#pragma once

#include <cstdint>
#include <vector>

#include "flow/demand_delta.h"
#include "flow/flow.h"
#include "power/switch_power.h"
#include "topo/fattree.h"
#include "topo/topology.h"
#include "util/types.h"

namespace eprons {

class PathCatalog;

struct ConsolidationConfig {
  /// Scale factor K (paper section II): latency-sensitive flow demands are
  /// inflated to K * demand before placement, reserving headroom.
  double scale_factor_k = 1.0;
  /// Reserved capacity per link, Mbps (Fig. 2 uses 50 Mbps on 1 Gbps links,
  /// limiting usable bandwidth to 950 Mbps).
  Bandwidth safety_margin = 50.0;
  /// Per-switch active power for the objective, W.
  Power switch_power = 36.0;
  /// Per-link active power for the objective, W.
  Power link_power = 0.0;
  /// When non-empty (NodeId-indexed), flows may only be routed through
  /// switches marked true — used to consolidate *within* a fixed
  /// aggregation-policy subnet (Fig. 9/10/13). Empty = whole topology.
  std::vector<bool> allowed_switches;
  /// When non-empty (LinkId-indexed), links marked true carry no traffic —
  /// the fault overlay's down links during an emergency re-plan. Empty =
  /// every link usable.
  std::vector<bool> blocked_links;
  /// Optional memoized path enumeration (see topo/path_catalog.h), shared
  /// across consolidate() calls on the same topology — the joint optimizer
  /// wires its catalog in here for every K candidate. When set, the
  /// consolidators read annotated candidate paths from the catalog instead
  /// of re-enumerating (and re-resolving links) per call; the candidate
  /// order, and therefore every placement, is identical either way. Not
  /// owned; must be built over the same Topology passed to consolidate().
  const PathCatalog* path_catalog = nullptr;
  /// When non-empty (directed-arc-indexed: slot = LinkId*2 + direction, the
  /// same layout the greedy packer and the MILP capacity rows use), load in
  /// Mbps already committed on each arc by an *earlier* solve phase. The
  /// consolidator subtracts it from the usable capacity before placing its
  /// own flows. This is the composition hook the hierarchical consolidator
  /// uses: pod-phase placements charge the fabric arcs they ride, and the
  /// core phase packs the inter-pod flows into the remaining headroom. The
  /// values must already be K-scaled / host-adjacency-adjusted exactly as
  /// the packer would charge them.
  std::vector<Bandwidth> committed_arc_load;
  /// When non-empty (NodeId-indexed), switches marked true are already
  /// powered by an earlier solve phase: the objective treats them as free
  /// (zero marginal power) and they arrive pre-marked in the returned
  /// switch_on mask. Used by the hierarchical core phase so inter-pod flows
  /// prefer aggregation switches the pod phase already lit.
  std::vector<bool> preactivated_switches;
};

struct ConsolidationResult {
  bool feasible = false;
  /// NodeId-indexed; hosts are always true.
  std::vector<bool> switch_on;
  /// LinkId-indexed.
  std::vector<bool> link_on;
  /// Per flow (FlowSet order), the assigned node path. Empty if infeasible.
  std::vector<Path> flow_paths;
  int active_switches = 0;
  int active_links = 0;
  /// Active switches per fat-tree layer; sums to active_switches.
  int edge_switches = 0;
  int agg_switches = 0;
  int core_switches = 0;
  /// Power attributed per topology layer (`count * switch_power`) plus the
  /// link share (`active_links * link_power`). `network_power` is *defined*
  /// as the fixed-order sum ((edge + agg) + core) + links, so the
  /// attribution ledger's components always sum bit-identically to the
  /// headline total — no post-hoc decomposition, the total flows through
  /// the components.
  Power edge_power_w = 0.0;
  Power agg_power_w = 0.0;
  Power core_power_w = 0.0;
  Power link_power_w = 0.0;
  /// Network part of the objective: ((edge + agg) + core) + links, W.
  Power network_power = 0.0;
  /// True when this result came out of the incremental (warm-started)
  /// path of consolidate_incremental — false for cold packs, including a
  /// warm call that fell back to a full re-pack (see WarmStartHint).
  bool warm_started = false;
};

/// Warm-start hint for consolidate_incremental: the previous epoch's flow
/// set and the placement chosen for it. Implementations diff the new
/// demands against `previous_flows` (see flow/demand_delta.h) and reuse
/// the previous routing for clean flows, re-packing only the dirty ones.
///
/// The hint is advisory: a consolidator may ignore it (the default falls
/// back to a cold pack), and must fall back to a cold pack whenever the
/// incremental result would regress beyond `max_extra_switches`
/// newly-activated switches over the previous plan — the configurable
/// regression bound that keeps incremental plan quality pinned to the
/// cold planner's.
struct WarmStartHint {
  /// The flow set the previous placement routed. Must be non-null and
  /// index-aligned with `previous->flow_paths` for the hint to apply.
  const FlowSet* previous_flows = nullptr;
  /// The previous epoch's placement (any feasible ConsolidationResult).
  const ConsolidationResult* previous = nullptr;
  /// Regression bound: the incremental plan may activate at most this
  /// many switches beyond the previous plan's count before the
  /// consolidator abandons it for a full cold re-pack.
  int max_extra_switches = 2;

  /// True when the hint carries enough state to warm-start from.
  bool usable() const {
    return previous_flows != nullptr && previous != nullptr &&
           previous->flow_paths.size() == previous_flows->size();
  }
};

/// Abstract consolidation strategy, mirroring the `Topology` interface:
/// the joint optimizer, the epoch controller, and the planning tools
/// program against this instead of hard-coding the greedy path, so exact
/// (MILP) and heuristic consolidation are interchangeable per scenario.
///
/// Implementations must be safe to call concurrently from multiple
/// threads on distinct arguments — the joint optimizer consolidates every
/// K candidate in parallel through one shared instance.
class Consolidator {
 public:
  virtual ~Consolidator() = default;

  virtual ConsolidationResult consolidate(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config) const = 0;

  /// Warm-started consolidation: like consolidate(), but may reuse the
  /// previous epoch's routing for flows the demand delta left untouched.
  /// The returned plan must satisfy exactly the same constraints as a
  /// cold pack (safety margin, allowed switches, blocked links); only the
  /// work done — and, within the regression bound, the chosen paths — may
  /// differ. The base implementation ignores the hint.
  virtual ConsolidationResult consolidate_incremental(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config, const WarmStartHint* warm) const {
    (void)warm;
    return consolidate(topo, flows, config);
  }

  /// Stable identifier for tables and logs ("greedy", "milp", ...).
  virtual const char* name() const = 0;
};

/// Fills active counts and network power from the masks.
void finalize_result(const Graph& graph, const ConsolidationConfig& config,
                     ConsolidationResult& result);

/// 64-bit FNV-1a digest of a placement: feasibility, both masks, every
/// flow path, and the network power bits. Two results compare equal under
/// the determinism contract iff their fingerprints match, so tests, the
/// ablation bench, and CI diff plans across `--threads` by comparing this
/// one value instead of deep-comparing vectors.
std::uint64_t placement_fingerprint(const ConsolidationResult& result);

/// Marks every switch/link along `path` as on.
void activate_path(const Graph& graph, const Path& path,
                   ConsolidationResult& result);

}  // namespace eprons
