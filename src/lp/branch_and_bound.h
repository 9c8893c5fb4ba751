// Branch-and-bound mixed-integer solver over the simplex relaxation.
//
// The consolidation MILP has binary switch/link ON-OFF variables (Y, X) and
// binary unsplittable-path choices (Z); everything else is continuous.
// Best-bound node selection with most-fractional branching is enough for the
// instance sizes we solve exactly (the paper, like us, falls back to a
// greedy heuristic beyond that — see consolidate/greedy_consolidator.h).
#pragma once

#include "lp/model.h"
#include "lp/simplex.h"

namespace eprons::lp {

struct MilpOptions {
  SimplexOptions simplex;
  /// Max branch-and-bound nodes before giving up (returns incumbent if any).
  int max_nodes = 200000;
  /// Integrality tolerance.
  double int_tol = 1e-6;
  /// Stop when (upper - lower) / max(1, |upper|) falls below this gap.
  double rel_gap = 1e-9;
};

class MilpSolver {
 public:
  explicit MilpSolver(MilpOptions options = {});

  /// Solves the model honoring `Variable::is_integer`. Status is:
  ///   Optimal            — proven optimal integer solution
  ///   FeasibleIncumbent  — node limit hit but an integer solution found
  ///   NodeLimit          — node limit hit with no integer solution
  ///   Infeasible / Unbounded — per the relaxation
  Solution solve(const Model& model) const;

  /// Nodes explored by the most recent solve (diagnostics / benches).
  long long last_node_count() const { return last_nodes_; }

 private:
  MilpOptions options_;
  mutable long long last_nodes_ = 0;
};

}  // namespace eprons::lp
