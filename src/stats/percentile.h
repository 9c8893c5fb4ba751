// Percentile / tail-latency estimation.
//
// SLAs in the paper are 95th-percentile tail latencies; the latency monitor
// and TimeTrader's feedback loop both need streaming percentile estimates.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace eprons {

/// The nearest-rank rule every percentile here uses: the p-quantile of n > 0
/// values is the rank-th smallest, rank = ceil(p * n) clamped to [1, n]
/// (p is clamped to [0, 1] first).
std::size_t nearest_rank(std::size_t n, double p);

/// Exact order statistics without sorting or reordering `values`: out[i] is
/// the ranks[i]-th smallest value (1-based) in IEEE total order, where -0.0
/// sorts before +0.0. Without NaNs that is the value std::nth_element would
/// place at index ranks[i] - 1, bit for bit — unless -0.0 and +0.0 both
/// occur, which compare equal, so nth_element may return either. Ranks
/// must be non-decreasing and in [1, values.size()], with one output each.
///
/// A radix select: one pass finds the range of an order-preserving 64-bit
/// key, one pass counts keys into 2^11 equal-width buckets of that range,
/// and nth_element runs only over the buckets from the lowest rank's to
/// the highest rank's — for a p95/p99 pair a few percent of the values.
void select_ranks(std::span<const double> values,
                  std::span<const std::size_t> ranks, std::span<double> out);

/// Exact percentile over all recorded samples. O(1) insert; a quantile query
/// selects its rank (select_ranks) and never reorders the samples, so
/// mean() sums them in insertion order whenever it is called. Suitable for
/// end-of-run reporting.
class PercentileEstimator {
 public:
  void add(double sample);
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// p in [0,1]; nearest-rank (ceil) convention. Returns 0 when empty.
  double quantile(double p) const;
  double mean() const;
  double max() const;
  double min() const;
  void clear();

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Sliding-window percentile over the most recent `capacity` samples;
/// used by feedback controllers (TimeTrader) that react to recent tails.
class WindowedPercentile {
 public:
  explicit WindowedPercentile(std::size_t capacity);

  void add(double sample);
  std::size_t count() const { return window_.size(); }
  bool empty() const { return window_.empty(); }
  double quantile(double p) const;
  void clear();

 private:
  std::size_t capacity_;
  std::deque<double> window_;
};

/// Welford online mean/variance plus min/max; cheap per-sample bookkeeping.
class OnlineStats {
 public:
  void add(double sample);
  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double min() const;
  double max() const;
  void clear();

  /// Merges another accumulator (parallel reduction friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace eprons
