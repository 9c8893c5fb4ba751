// Hierarchical pod-decomposed consolidation for large fat-trees.
//
// The flat greedy/MILP instance treats the fabric as one bin-packing
// problem; at k=16 (1024 hosts, 320 switches) that is the scale ceiling.
// GreenDCN's observation is that the DCN energy problem decomposes along
// fat-tree regularity: intra-pod flows never leave their pod (their
// candidate paths touch only that pod's edge/aggregation switches), so
// each pod's consolidation is an independent sub-instance, and only the
// inter-pod flows need a fabric-wide solve. This consolidator composes an
// inner flat Consolidator (greedy by default, MILP works too) in three
// phases:
//
//   1. pod partition — split the flow set into per-pod intra-pod buckets
//      plus one inter-pod bucket, preserving relative flow order;
//   2. pod solve — run the inner consolidator per non-empty pod with
//      allowed_switches restricted to that pod's edge/agg mask. Pods are
//      link-disjoint, so the solves run in parallel on an internal thread
//      pool; each writes only its own slot, and the merge is serial in pod
//      order, so results are bit-identical for any thread count;
//   3. core solve + stitch — one inner solve over the inter-pod bucket
//      with the pod phases' arc loads pre-charged (committed_arc_load) and
//      the pod-lit switches marked free (preactivated_switches), then OR
//      the masks, scatter per-bucket paths back to original flow indices,
//      and finalize_result — which re-derives the per-layer counts from
//      the stitched mask, so the attribution exact-sum invariant
//      (network_power == ((edge+agg)+core)+link) holds by construction.
//
// The decomposition is an approximation: pod solves do not see the
// inter-pod flows that will later ride their edge->agg links, so the
// stitched plan can light marginally more switches than the flat solver
// (bench_ablation_hierarchy measures the gap). Constraint satisfaction is
// not approximate: every phase packs against the true residual capacities,
// so a feasible stitched plan respects the safety margin, allowed
// switches, and blocked links exactly as a flat plan does.
//
// Non-fat-tree topologies have no pod structure; consolidate() simply
// delegates to the inner consolidator.
#pragma once

#include <memory>

#include "consolidate/greedy_consolidator.h"
#include "util/thread_pool.h"

namespace eprons {

struct HierarchicalConsolidatorOptions {
  /// Worker threads for the per-pod solves (<= 1 = serial). Plans are
  /// bit-identical for any value — the pool only changes wall-clock.
  int threads = 1;
};

class HierarchicalConsolidator : public Consolidator {
 public:
  /// `inner` solves each pod and the core instance; nullptr = an internal
  /// GreedyConsolidator with default options. Not owned; must be
  /// thread-safe for concurrent calls (both stock consolidators are) and
  /// must outlive this object.
  explicit HierarchicalConsolidator(
      const Consolidator* inner = nullptr,
      HierarchicalConsolidatorOptions options = {});

  /// Consolidator interface; thread-safe for concurrent calls.
  ConsolidationResult consolidate(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config) const override;

  /// Warm start decomposes along the same partition: when the previous
  /// flow set has the same size and every index kept its bucket (same pod,
  /// or inter-pod both epochs), each phase gets a sub-hint carved from the
  /// previous placement and the inner consolidator's own warm path (the
  /// greedy keep/repack; the MILP has none and solves cold) applies per
  /// bucket. A partition-shape change falls back to a cold hierarchical
  /// solve.
  ConsolidationResult consolidate_incremental(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config,
      const WarmStartHint* warm) const override;

  const char* name() const override { return "hierarchical"; }

 private:
  const Consolidator& inner() const {
    return inner_ != nullptr ? *inner_ : fallback_;
  }

  ConsolidationResult solve(const FatTree& ft, const FlowSet& flows,
                            const ConsolidationConfig& config,
                            const WarmStartHint* warm) const;

  GreedyConsolidator fallback_;
  const Consolidator* inner_;
  HierarchicalConsolidatorOptions options_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace eprons
