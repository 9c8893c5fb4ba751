// Epoch-to-epoch demand diffing for the incremental planning layer.
//
// Diurnal traces change only a few flows per epoch, yet a cold planner
// re-routes the whole flow set every time. DemandDelta captures exactly
// what changed between two consecutive FlowSets — added, removed, and
// resized flows — so the warm-started consolidators can keep the previous
// routing of clean flows and re-pack only the dirty ones.
//
// Flows are matched positionally: the epoch controller rebuilds its
// predicted FlowSet from the same ground-truth flows in the same order
// every epoch, so index i in the previous set corresponds to index i in
// the next set whenever (src, dst, class) agree. A mismatch at an index
// is conservatively treated as one removal plus one addition.
#pragma once

#include <cstddef>
#include <vector>

#include "flow/flow.h"

namespace eprons {

/// The difference between two consecutive epoch snapshots.
struct DemandDelta {
  /// Indices into the *next* set with no positional match in the previous
  /// set (new flows, or endpoint/class mismatches at their index).
  std::vector<FlowId> added;
  /// Indices into the *previous* set whose flow disappeared (or whose
  /// index now holds a different endpoint pair / class).
  std::vector<FlowId> removed;
  /// Indices (valid in both sets) where endpoints and class match but the
  /// demand changed.
  std::vector<FlowId> resized;
  /// Flows identical in both sets.
  std::size_t unchanged = 0;

  bool identical() const {
    return added.empty() && removed.empty() && resized.empty();
  }
};

/// Positional diff of `previous` vs `next` (see file comment for the
/// matching rule). Deterministic: index lists are ascending.
DemandDelta diff_demands(const FlowSet& previous, const FlowSet& next);

}  // namespace eprons
