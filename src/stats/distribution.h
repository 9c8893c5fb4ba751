// Discretized probability distributions on a uniform grid.
//
// This is the statistical substrate of EPRONS-Server: per-request *work*
// (CPU cycles) is modeled as a discretized PDF; "equivalent requests" (paper
// section III-A) are convolutions of such PDFs; violation probabilities are
// CCDF lookups (section III-B, Fig. 5).
//
// Grid convention: mass p(i) sits at value offset + i * step. All pairwise
// operations require identical `step` (checked); offsets may differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace eprons {

class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;

  /// Takes ownership of probability masses; normalizes them to sum to 1.
  /// Requires step > 0 and at least one strictly positive mass.
  DiscreteDistribution(double offset, double step, std::vector<double> pmf);

  /// Builds an empirical distribution from samples, binned on [min, max]
  /// into `bins` equal cells (values at bin centers).
  static DiscreteDistribution from_samples(const std::vector<double>& samples,
                                           std::size_t bins);

  /// All mass at a single point (degenerate distribution).
  static DiscreteDistribution point_mass(double value, double step);

  bool empty() const { return pmf_.empty(); }
  double offset() const { return offset_; }
  double step() const { return step_; }
  std::size_t size() const { return pmf_.size(); }
  const std::vector<double>& pmf() const { return pmf_; }

  /// Largest value carrying mass (offset + (size-1)*step).
  double max_value() const;
  /// Smallest value carrying mass.
  double min_value() const { return offset_; }

  double mean() const;
  double variance() const;

  /// P[X <= x], with linear interpolation between grid points.
  double cdf(double x) const;
  /// P[X > x] == 1 - cdf(x). This is the violation probability primitive.
  double ccdf(double x) const;
  /// Smallest x with P[X <= x] >= p (p in [0,1]).
  double quantile(double p) const;

  /// Distribution of X + Y for independent X, Y (FFT convolution).
  /// This is the "equivalent request" operation. Steps must match.
  DiscreteDistribution convolve(const DiscreteDistribution& other) const;

  /// Conditional remaining distribution: given that `done` work has already
  /// completed without the request finishing, distribution of X - done
  /// restricted to X > done. Used at request *arrival* instants for the
  /// in-service residual (paper section III-B). If all mass is <= done,
  /// returns a point mass at zero.
  DiscreteDistribution conditional_remaining(double done) const;

  /// Drops trailing/leading bins whose total mass is below `eps` and
  /// renormalizes; keeps convolution sizes bounded in long queues.
  DiscreteDistribution truncated(double eps = 1e-9) const;

  /// Draws one sample (inverse-CDF on the grid with intra-bin jitter): the
  /// bin is bin_at(u) for one uniform u, the jitter a second uniform.
  double sample(Rng& rng) const;

  /// Index of the first bin whose CDF reaches u, u in [0, 1): the index
  /// std::lower_bound finds over the CDF, whether or not a guide is built.
  std::size_t bin_at(double u) const;

  /// Builds a guide table over the CDF, after which bin_at reads one entry
  /// and scans about one bin instead of binary-searching. One sweep; worth
  /// it only for a distribution drawn from many times, such as the DES's
  /// work distribution (ServiceModel builds it). Not built by normalize():
  /// the residual VP path makes thousands of distributions it never draws
  /// from, and a guide in each made perfbench's diurnal-replay ~9% slower
  /// and ~8% larger in peak RSS.
  void build_sampling_guide();

 private:
  void normalize();

  double offset_ = 0.0;
  double step_ = 1.0;
  std::vector<double> pmf_;
  // Cached CDF (same indexing as pmf_): cdf_[i] = P[X <= offset + i*step].
  std::vector<double> cdf_;
  // Empty, or M = guide_.size() (a power of two) entries: guide_[k] is
  // bin_at(k / M), where every u in [k/M, (k+1)/M) starts its scan.
  std::vector<std::uint32_t> guide_;
};

}  // namespace eprons
