#include "topo/aggregation.h"

#include <stdexcept>

namespace eprons {

AggregationPolicies::AggregationPolicies(const FatTree* topo) : topo_(topo) {}

int AggregationPolicies::max_level() const {
  // Turning off rows 1..k/2-1 gives levels 1..2*(k/2-1); the final level
  // prunes core row 0 down to a single switch. For k=4 this yields 3.
  return 2 * (topo_->k() / 2 - 1) + 1;
}

AggregationPolicy AggregationPolicies::policy(int level) const {
  if (level < 0 || level > max_level()) {
    throw std::out_of_range("aggregation level out of range");
  }
  const int half = topo_->k() / 2;
  const Graph& graph = topo_->graph();

  AggregationPolicy out;
  out.level = level;
  out.switch_on.assign(graph.num_nodes(), true);

  // Levels alternate: odd level 2r-1 turns off core row r, even level 2r
  // additionally turns off agg row r. Applied for rows half-1 down to 1.
  // The final level (max) turns off all but one core in row 0.
  int remaining = level;
  for (int row = half - 1; row >= 1 && remaining > 0; --row) {
    // Turn off core row `row`.
    for (int col = 0; col < half; ++col) {
      out.switch_on[static_cast<std::size_t>(topo_->core(row, col))] = false;
    }
    --remaining;
    if (remaining == 0) break;
    // Turn off agg row `row` in every pod.
    for (int pod = 0; pod < topo_->k(); ++pod) {
      out.switch_on[static_cast<std::size_t>(topo_->agg(pod, row))] = false;
    }
    --remaining;
  }
  if (remaining > 0) {
    // Final pruning: keep only core (0, 0).
    for (int col = 1; col < half; ++col) {
      out.switch_on[static_cast<std::size_t>(topo_->core(0, col))] = false;
    }
    --remaining;
  }

  out.active_switches = count_active_switches(graph, out.switch_on);
  return out;
}

int count_active_switches(const Graph& graph,
                          const std::vector<bool>& switch_on) {
  int count = 0;
  for (const Node& n : graph.nodes()) {
    if (is_switch_type(n.type) && switch_on[static_cast<std::size_t>(n.id)]) {
      ++count;
    }
  }
  return count;
}

}  // namespace eprons
