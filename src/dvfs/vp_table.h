// Per-frequency violation-probability lookup tables for the planner's DVFS
// decisions.
//
// The server power predictor answers "which grid frequency meets the budget
// at the target violation probability?" for every K candidate of every
// epoch. Before this table existed it leaned on ServiceModel's lazily-grown
// convolution cache — per-decision FFT convolutions from a mutable,
// lock-free cache that parallel K sweeps could race on. A VpTable runs all
// the batch convolutions (stats/fft) once, eagerly and serially — work^(*1)
// .. work^(*max_depth) — so a planner decision is one CCDF interpolation per
// probed frequency (at the model's cached per-grid-frequency cycle cost),
// and the shared table is strictly read-only afterwards.
//
// Bit-exactness contract: violation_probability(d, budget, fi) returns the
// same double as
//   model.violation_probability(model.fresh_convolution(d), 0, budget,
//                               model.frequency_grid()[fi])
// — it is ServiceModel::violation_probability_at, which carries that
// contract itself, over copies of the model's own convolutions.
#pragma once

#include <cstddef>
#include <vector>

#include "dvfs/service_model.h"
#include "util/types.h"

namespace eprons {

class VpTable {
 public:
  /// Precomputes CCDF-backed equivalent-work tables for queue depths
  /// 1..max_depth over `model`'s frequency grid. Runs the model's FFT
  /// convolutions eagerly — which also warms ServiceModel's own cache up
  /// to max_depth, and the work spectra those convolutions use, making
  /// later fresh_convolution() and work_spectrum() calls at those depths
  /// and sizes read-only (and therefore safe from concurrent planner
  /// threads). The model must outlive the table.
  VpTable(const ServiceModel* model, std::size_t max_depth);

  const ServiceModel& model() const { return *model_; }
  /// Deepest precomputed equivalent request (>= 1).
  std::size_t max_depth() const { return equivalents_.size(); }

  /// The precomputed work^(*depth) distribution (depth in [1, max_depth]).
  const DiscreteDistribution& equivalent(std::size_t depth) const {
    return equivalents_[depth - 1];
  }

  /// P[work of `depth` fresh requests > capacity of `budget` us at grid
  /// frequency index `freq_index`]; 1.0 for a non-positive budget.
  double violation_probability(std::size_t depth, SimTime budget,
                               std::size_t freq_index) const {
    return model_->violation_probability_at(equivalents_[depth - 1], 0.0,
                                            budget, freq_index);
  }

 private:
  const ServiceModel* model_;
  std::vector<DiscreteDistribution> equivalents_;  // [d-1] = work^(*d)
};

}  // namespace eprons
