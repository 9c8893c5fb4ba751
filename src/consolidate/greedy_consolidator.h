// Greedy bin-packing consolidation heuristic (paper section IV-B).
//
// "In real deployment, we design the heuristic algorithm (similar to the
// greedy bin-packing algorithm in [2]) to accelerate the latency-aware
// traffic consolidation." ElasticTree's greedy bin-packer routes each flow
// on the leftmost subtree with sufficient residual capacity; ours
// additionally (a) inflates latency-sensitive demands by K before packing,
// and (b) prefers paths that activate the fewest *new* switches, breaking
// ties to the leftmost path — which is exactly what consolidation means.
//
// Flows are packed largest-scaled-demand first (classic first-fit
// decreasing), so elephants claim the left spine and mice fill gaps.
// Under MinimizeSwitches a placement stops scanning candidates at the
// first fitting path that lights no new switch: no path can score lower,
// and ties go left, so that path wins the full scan too. A flow that fits
// on no path overflows onto the path with the most residual capacity, and
// the result is reported infeasible.
#pragma once

#include "consolidate/consolidation.h"

namespace eprons {

enum class PlacementObjective {
  /// Consolidate: fewest newly-activated switches (power minimization).
  MinimizeSwitches,
  /// Spread: lowest resulting bottleneck utilization (ECMP-like balancing
  /// across a pinned subnet, used when an aggregation policy fixes which
  /// switches are on and power no longer depends on routing).
  BalanceLoad,
};

struct GreedyConsolidatorOptions {
  PlacementObjective objective = PlacementObjective::MinimizeSwitches;
};

class GreedyConsolidator : public Consolidator {
 public:
  explicit GreedyConsolidator(const Topology* topo = nullptr,
                              GreedyConsolidatorOptions options = {});

  /// Consolidator interface; thread-safe for concurrent calls.
  ConsolidationResult consolidate(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config) const override;

  /// Incremental pack: keeps the previous routing for flows the demand
  /// delta left clean (as long as the inherited path is still legal and
  /// fits at the new scaled demand) and re-packs only dirty flows.
  /// Falls back to a full cold re-pack when the incremental plan would
  /// overflow or activate more than `warm->max_extra_switches` switches
  /// beyond the previous plan (the regression bound), logging the
  /// fallback and counting it in `consolidate.warm_fallbacks`.
  ConsolidationResult consolidate_incremental(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config,
      const WarmStartHint* warm) const override;

  const char* name() const override { return "greedy"; }

  /// Convenience form bound to the constructor topology.
  ConsolidationResult consolidate(const FlowSet& flows,
                                  const ConsolidationConfig& config) const;

 private:
  const Topology* topo_;
  GreedyConsolidatorOptions options_;
};

}  // namespace eprons
