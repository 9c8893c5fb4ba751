// Exact latency-aware traffic consolidation via MILP (paper eqs. (2)-(9)).
//
// The paper's arc formulation uses flow-conservation variables f_i(u,v) with
// the unsplittable-path constraint (9) f_i(u,v) = K * d_i * Z_i(u,v). On a
// fat-tree, where every loop-free shortest path is enumerable (at most
// (k/2)^2 per flow), the equivalent and much smaller *path* formulation is:
//
//   minimize   sum_l X_l * l(u,v) + sum_u Y_u * s(u)   (+ N * Pserver)
//   s.t.       sum_p Z_{i,p} = 1                                  per flow
//              sum_{i,p uses arc a} K_i d_i Z_{i,p}
//                    <= (c - margin) * X_{link(a)}                per arc
//              X_l <= Y_u, X_l <= Y_v                             eq. (7)
//              Z, X, Y binary
//
// Constraint (8) (a switch with no active link turns off) is implied by the
// minimization objective. Constraint (5) (antisymmetry) is implicit in the
// per-directed-arc accounting. K enters as a fixed parameter; the joint
// optimizer searches K externally (section IV-B solves per-K models).
#pragma once

#include <atomic>

#include "consolidate/consolidation.h"
#include "lp/branch_and_bound.h"

namespace eprons {

struct MilpConsolidatorOptions {
  lp::MilpOptions milp;
};

class MilpConsolidator : public Consolidator {
 public:
  explicit MilpConsolidator(const Topology* topo = nullptr,
                            MilpConsolidatorOptions options = {});

  MilpConsolidator(const MilpConsolidator& other)
      : topo_(other.topo_),
        options_(other.options_),
        last_nodes_(other.last_nodes_.load()) {}
  MilpConsolidator& operator=(const MilpConsolidator& other) {
    topo_ = other.topo_;
    options_ = other.options_;
    last_nodes_.store(other.last_nodes_.load());
    return *this;
  }

  /// Consolidator interface: places all flows; `result.feasible` is false
  /// when demands cannot fit (or the node budget ran out with no
  /// incumbent).
  ConsolidationResult consolidate(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config) const override;

  const char* name() const override { return "milp"; }

  /// Convenience form bound to the constructor topology.
  ConsolidationResult consolidate(const FlowSet& flows,
                                  const ConsolidationConfig& config) const;

  /// Branch-and-bound nodes used by the last consolidate() call.
  long long last_node_count() const { return last_nodes_.load(); }

 private:
  const Topology* topo_;
  MilpConsolidatorOptions options_;
  mutable std::atomic<long long> last_nodes_{0};
};

}  // namespace eprons
