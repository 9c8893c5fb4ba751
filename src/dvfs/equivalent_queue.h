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
//     as scheduling overhead. The ServiceModel caches this chain as CDF
//     tables by the head's start bin (ServiceModel::residual_chain), so the
//     convolutions are paid once per (start bin, depth); the queue only
//     recomputes each link's offset from `in_service_done`, with the
//     reference expressions in the reference order.
//
// violation_probability_at reads those caches and is what the policies
// call; at() materializes the reference chain (conditional_remaining, then
// ServiceModel::convolve_work per link) for tests and benches, and the
// cached VPs equal model.violation_probability_at(at(i), ...) bit for bit.
//
// The planner never builds one of these: its per-K DVFS decisions read
// ServiceModel::fresh_convolution directly (fresh-case equivalents only —
// a planning-time prediction sees no partially-served request). The DES
// policies keep using this class; its fresh case reads the same cache,
// which a JointOptimizer pre-warms to its predictor's queue-depth cap.
#pragma once

#include <array>
#include <stdexcept>
#include <vector>

#include "dvfs/service_model.h"

namespace eprons {

class EquivalentQueue {
 public:
  /// `queue_len` >= 1. `in_service_done` is work already retired on the
  /// in-service request (0 at departure instants). An arrival instant
  /// builds the model's residual chain to `queue_len` links on first use.
  EquivalentQueue(const ServiceModel* model, std::size_t queue_len,
                  Work in_service_done);

  std::size_t size() const { return size_; }

  /// ServiceModel::violation_probability_at of queued request i's
  /// equivalent distribution, from the model's caches: equal to
  /// model.violation_probability_at(at(i), now, deadline, freq_index).
  double violation_probability_at(std::size_t i, SimTime now,
                                  SimTime deadline,
                                  std::size_t freq_index) const {
    check_index(i);
    if (fresh_) {
      return model_->violation_probability_at(
          model_->fresh_convolution(i + 1), now, deadline, freq_index);
    }
    return model_->violation_probability_at(residual(i), now, deadline,
                                            freq_index);
  }

  /// Equivalent work distribution of queued request i (0 = in service):
  /// the reference chain. At an arrival instant the first call builds all
  /// of it with n convolutions, as section III-C describes.
  const DiscreteDistribution& at(std::size_t i) const;

 private:
  void check_index(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("equivalent queue index");
  }
  const CdfView& residual(std::size_t i) const {
    return size_ <= kInlineLinks ? inline_links_[i] : spilled_links_[i];
  }

  const ServiceModel* model_;
  std::size_t size_;
  bool fresh_;
  Work done_;
  // Residual case: link i's cached CDF table at its offset for this
  // `in_service_done`. Up to kInlineLinks live in place, so a decision on a
  // shallow queue whose chain is cached allocates nothing.
  static constexpr std::size_t kInlineLinks = 8;
  std::array<CdfView, kInlineLinks> inline_links_;
  std::vector<CdfView> spilled_links_;
  mutable std::vector<DiscreteDistribution> reference_;  // filled by at()
};

}  // namespace eprons
