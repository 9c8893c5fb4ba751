// Path-level latency sampling: composes per-hop link latency over the hops
// of a routed path, using the current link utilizations.
//
// This is the "latency monitor" input of Fig. 7: each request/reply samples
// its network latency from the links its consolidated path traverses, and
// EPRONS-Server receives the measured slack.
//
// Every hop is drawn by LinkLatencyModel::prepare_hop + sample_prepared.
// sample_latency prepares each hop as it draws it; prepare + the
// sample_prepared below prepare a path once and draw it many times. Both
// run the same per-hop draw, so from equal RNG states they return the same
// bits and leave the streams in the same state by construction.
#pragma once

#include <vector>

#include "net/link_latency.h"
#include "net/link_utilization.h"
#include "topo/graph.h"
#include "util/rng.h"

namespace eprons {

class PathLatencyEstimator {
 public:
  PathLatencyEstimator(const LinkUtilization* utilization,
                       LinkLatencyModel model);

  const LinkLatencyModel& model() const { return model_; }

  /// Expected latency along `path` (sum of per-hop means).
  SimTime mean_latency(const Path& path) const;

  /// Draws one packet's end-to-end latency along `path`, preparing each
  /// hop (one link lookup) as it goes.
  SimTime sample_latency(const Path& path, Rng& rng) const;

  /// Precomputes the per-hop sampling constants of `path` into `out`
  /// (cleared first; pass the same scratch vector across calls to reuse
  /// its capacity). The constants depend only on the path and the current
  /// link utilizations, so a caller drawing one path many times does the
  /// link lookups once.
  void prepare(const Path& path, std::vector<PreparedHop>* out) const;

  /// Draws one end-to-end latency from prepared hops: the draws
  /// sample_latency(path, rng) makes, hop for hop.
  SimTime sample_prepared(const std::vector<PreparedHop>& hops,
                          Rng& rng) const {
    SimTime total = 0.0;
    for (const PreparedHop& hop : hops) {
      total += model_.sample_prepared(hop, rng);
    }
    return total;
  }

  /// Worst possible latency along `path` (all buffers full).
  SimTime max_latency(const Path& path) const;

 private:
  const LinkUtilization* utilization_;
  LinkLatencyModel model_;
};

}  // namespace eprons
