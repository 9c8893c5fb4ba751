// The four network aggregation policies of Fig. 9.
//
// "From Aggregation 0 to Aggregation 3, we gradually turn off the core-level
// switches and the corresponding aggregation-level switches." For a 4-ary
// fat-tree (4 core, 8 agg, 8 edge = 20 switches) our presets are:
//   Aggregation 0: everything on                      -> 20 switches
//   Aggregation 1: core row 1 off (cores c1_*)        -> 18 switches
//   Aggregation 2: additionally agg row 1 off         -> 14 switches
//   Aggregation 3: additionally one core of row 0 off -> 13 switches
// Every preset keeps all hosts mutually reachable (edge switches never turn
// off; agg/core row 0 always survives), matching the 13..19 active-switch
// range visible in Fig. 11(b).
#pragma once

#include <vector>

#include "topo/fattree.h"

namespace eprons {

struct AggregationPolicy {
  int level = 0;                 // 0 (full topology) .. max_level()
  std::vector<bool> switch_on;   // indexed by NodeId; hosts omitted from count
  int active_switches = 0;
};

class AggregationPolicies {
 public:
  explicit AggregationPolicies(const FatTree* topo);

  /// Highest defined level (3 for k=4; scales with k/2 rows for larger k).
  int max_level() const;

  /// Builds the ON/OFF switch mask for `level`. Throws on out-of-range.
  AggregationPolicy policy(int level) const;

 private:
  const FatTree* topo_;
};

/// Counts switches marked on in a mask (hosts ignored).
int count_active_switches(const Graph& graph,
                          const std::vector<bool>& switch_on);

}  // namespace eprons
