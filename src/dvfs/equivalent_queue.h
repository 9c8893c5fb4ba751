// Equivalent request distributions for a queue snapshot (section III-A/B).
//
// The "equivalent request" R_ie of queued request i is the convolution of
// its own work distribution with those of all requests ahead of it: request
// i can only complete after everything in front finishes. Two cases:
//
//   * departure instant (core just freed): every queued request is fresh,
//     so R_ie = work^(*(i+1)) — served from the ServiceModel's cache at
//     zero convolution cost (the section III-C optimization).
//   * arrival instant (core mid-request, `in_service_done` > 0): queue[0]
//     is replaced by its conditional remaining-work distribution R0e, and
//     R_ie = R0e * work^(*i) — the n convolutions the paper accounts for
//     as scheduling overhead. Each is ServiceModel::convolve_work: one
//     forward and one inverse transform against the cached work spectrum.
//
// The planner never builds one of these: its per-K DVFS decisions go
// through the precomputed per-frequency CCDF tables in dvfs/vp_table.h
// (fresh-case equivalents only — a planning-time prediction sees no
// partially-served request). The DES policies keep using this class; its
// fresh case reads the same ServiceModel cache the VpTable pre-warms.
#pragma once

#include <vector>

#include "dvfs/service_model.h"

namespace eprons {

class EquivalentQueue {
 public:
  /// `queue_len` >= 1. `in_service_done` is work already retired on the
  /// in-service request (0 at departure instants).
  EquivalentQueue(const ServiceModel* model, std::size_t queue_len,
                  Work in_service_done);

  std::size_t size() const { return size_; }

  /// Equivalent work distribution of queued request i (0 = in service).
  const DiscreteDistribution& at(std::size_t i) const;

 private:
  const ServiceModel* model_;
  std::size_t size_;
  bool fresh_;
  std::vector<DiscreteDistribution> owned_;  // populated in the residual case
};

}  // namespace eprons
