#include "lp/branch_and_bound.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace eprons::lp {

MilpSolver::MilpSolver(MilpOptions options) : options_(options) {}

Solution MilpSolver::solve(const Model& model) const {
  last_nodes_ = 0;
  SimplexSolver simplex(options_.simplex);

  // Collect integer variables.
  std::vector<int> int_vars;
  for (int v = 0; v < model.num_variables(); ++v) {
    if (model.variable(v).is_integer) int_vars.push_back(v);
  }

  Solution root = simplex.solve(model);
  if (root.status != SolveStatus::Optimal) return root;
  if (int_vars.empty()) return root;

  const bool minimize = model.sense() == Sense::Minimize;
  auto better = [&](double a, double b) { return minimize ? a < b : a > b; };

  Solution incumbent;
  incumbent.status = SolveStatus::NodeLimit;  // none yet

  // Work copy of the model whose integer-variable bounds we mutate per node.
  Model work = model;

  struct StackNode {
    std::vector<std::array<double, 2>> bounds;  // per int var: {lo, hi}
    double bound;                               // parent relaxation objective
  };
  std::vector<StackNode> stack;
  {
    StackNode start;
    start.bounds.reserve(int_vars.size());
    for (int v : int_vars) {
      start.bounds.push_back(
          {model.variable(v).lower, model.variable(v).upper});
    }
    start.bound = root.objective;
    stack.push_back(std::move(start));
  }

  while (!stack.empty()) {
    if (last_nodes_ >= options_.max_nodes) break;
    ++last_nodes_;

    // Depth-first with best-bound tie-break: take the most recently pushed
    // node (children are pushed better-bound last, popped first).
    StackNode node = std::move(stack.back());
    stack.pop_back();

    // Bound pruning against the incumbent.
    if (incumbent.ok() && !better(node.bound, incumbent.objective) &&
        std::abs(node.bound - incumbent.objective) > options_.rel_gap) {
      continue;
    }

    // Apply bounds and solve the relaxation.
    for (std::size_t i = 0; i < int_vars.size(); ++i) {
      Variable& var = work.variable(int_vars[i]);
      var.lower = node.bounds[i][0];
      var.upper = node.bounds[i][1];
    }
    const Solution relax = simplex.solve(work);
    if (relax.status != SolveStatus::Optimal) continue;  // pruned infeasible
    if (incumbent.ok() && !better(relax.objective, incumbent.objective)) {
      continue;
    }

    // Find the most fractional integer variable.
    std::size_t branch_slot = int_vars.size();
    double worst_frac = options_.int_tol;
    for (std::size_t i = 0; i < int_vars.size(); ++i) {
      const double value = relax.x[static_cast<std::size_t>(int_vars[i])];
      const double frac = std::abs(value - std::round(value));
      if (frac > worst_frac) {
        worst_frac = frac;
        branch_slot = i;
      }
    }

    if (branch_slot == int_vars.size()) {
      // Integral: candidate incumbent (round to kill tolerance dust).
      Solution candidate = relax;
      for (int v : int_vars) {
        candidate.x[static_cast<std::size_t>(v)] =
            std::round(candidate.x[static_cast<std::size_t>(v)]);
      }
      candidate.objective = model.objective_value(candidate.x);
      if (!incumbent.ok() || better(candidate.objective, incumbent.objective)) {
        incumbent = candidate;
        incumbent.status = SolveStatus::FeasibleIncumbent;
      }
      continue;
    }

    // Branch: floor child and ceil child.
    const double value =
        relax.x[static_cast<std::size_t>(int_vars[branch_slot])];
    const double floor_v = std::floor(value);
    const double ceil_v = std::ceil(value);

    StackNode down;
    down.bounds = node.bounds;
    down.bounds[branch_slot][1] = std::min(down.bounds[branch_slot][1], floor_v);
    down.bound = relax.objective;

    StackNode up;
    up.bounds = node.bounds;
    up.bounds[branch_slot][0] = std::max(up.bounds[branch_slot][0], ceil_v);
    up.bound = relax.objective;

    const bool feasible_down = down.bounds[branch_slot][0] <=
                               down.bounds[branch_slot][1] + 1e-12;
    const bool feasible_up =
        up.bounds[branch_slot][0] <= up.bounds[branch_slot][1] + 1e-12;
    // Push the child closer to the fractional value last so DFS explores the
    // "rounding" direction first — finds incumbents quickly.
    const bool prefer_up = (value - floor_v) > 0.5;
    if (prefer_up) {
      if (feasible_down) stack.push_back(std::move(down));
      if (feasible_up) stack.push_back(std::move(up));
    } else {
      if (feasible_up) stack.push_back(std::move(up));
      if (feasible_down) stack.push_back(std::move(down));
    }
  }

  if (incumbent.ok()) {
    // Proven optimal only if the search exhausted every node.
    if (stack.empty() && last_nodes_ < options_.max_nodes) {
      incumbent.status = SolveStatus::Optimal;
    }
    return incumbent;
  }
  if (stack.empty()) {
    Solution none;
    none.status = SolveStatus::Infeasible;
    return none;
  }
  Solution none;
  none.status = SolveStatus::NodeLimit;
  return none;
}

}  // namespace eprons::lp
