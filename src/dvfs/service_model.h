// Statistical request service model shared by all DVFS policies.
//
// A request is an amount of *work* W (CPU cycles) drawn from an empirical
// distribution (the paper measured Xapian over a Wikipedia index; we
// synthesize an equivalent heavy-tailed distribution — see workload/).
// Service time at frequency f follows Rubik's split into frequency-dependent
// and frequency-independent parts (paper footnote 1):
//
//   t(W, f) = (1 - mu) * W / f  +  mu * W / f_max
//
// The violation probability (paper section III-B) of a request whose
// *equivalent* work distribution is We, at deadline D and frequency f, is
//   VP = P[We > work_capacity(D - T_start, f)] = We.ccdf(omega)
// which generalizes eq. (1)'s omega(D) = f * (D - T_start).
//
// The model also caches the "equivalent request" convolutions: the work of
// k back-to-back fresh requests is work^(*k) — computed once per k and
// reused, the optimization described in section III-C. Every convolution
// the DVFS layer runs has the work PDF as one operand, so the model also
// caches that operand's forward spectrum per transform size: each link of
// the fresh chain and of the arrival-instant residual chain costs one
// forward and one inverse transform (stats/fft.h).
//
// Section III-C caches only the fresh chain; an arrival instant, with the
// head request partly served, pays one convolution per queued request. The
// model caches that residual chain too, as CDF tables keyed by start bin:
// the head's conditional remaining-work pmf depends on `done` only through
// the start bin DiscreteDistribution::remaining_start picks, so every later
// link's convolution, truncation and CDF does too, while `done` enters
// only through the offsets, which each decision recomputes in the
// reference order (EquivalentQueue; docs/DETERMINISM.md). A residual
// decision thus pays the convolutions once per (start bin, depth).
//
// Most decisions in a DES see one fresh request. For those the model keeps,
// per target VP, the deadline margin at which each grid frequency starts to
// meet the target (one_request_thresholds), so a policy decides by
// comparisons instead of evaluating VPs.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "stats/distribution.h"
#include "stats/fft.h"
#include "util/types.h"

namespace eprons {

struct ServiceModelConfig {
  /// Fraction of execution insensitive to frequency (memory-bound share).
  double freq_independent_fraction = 0.15;
  Freq f_min = 1.2;
  Freq f_max = 2.7;
  /// DVFS grid step, GHz (100 MHz per the paper).
  double freq_step = 0.1;
  /// Mass below this is trimmed after convolutions to bound PDF growth.
  double truncate_eps = 1e-9;
};

class ServiceModel {
 public:
  ServiceModel(DiscreteDistribution work, ServiceModelConfig config = {});

  const DiscreteDistribution& work() const { return work_; }
  const ServiceModelConfig& config() const { return config_; }
  const std::vector<Freq>& frequency_grid() const { return grid_; }

  /// Service time of `work` cycles at frequency f, us.
  SimTime service_time(Work work, Freq f) const;

  /// Inverse: cycles retired in `duration` at frequency f (the omega(D) of
  /// eq. (1), generalized for the frequency-independent part).
  Work work_capacity(SimTime duration, Freq f) const;

  /// Mean service time at a frequency (for utilization / load sizing).
  SimTime mean_service_time(Freq f) const;

  /// Violation probability of a request with equivalent distribution
  /// `equivalent`, starting at `now` with absolute deadline `deadline`,
  /// processed at frequency f. 1.0 when the deadline already passed.
  double violation_probability(const DiscreteDistribution& equivalent,
                               SimTime now, SimTime deadline, Freq f) const;

  /// violation_probability at grid frequency `freq_index`, bit for bit:
  /// the cycle cost is cached per grid frequency from the expression
  /// work_capacity evaluates, and dividing by it stays a division.
  double violation_probability_at(const DiscreteDistribution& equivalent,
                                  SimTime now, SimTime deadline,
                                  std::size_t freq_index) const {
    return violation_probability_at(equivalent.cdf_view(), now, deadline,
                                    freq_index);
  }
  /// The same for a distribution held as a CDF table (a residual link).
  double violation_probability_at(const CdfView& equivalent, SimTime now,
                                  SimTime deadline,
                                  std::size_t freq_index) const {
    if (deadline <= now) return 1.0;
    return equivalent.ccdf((deadline - now) / per_cycle_us_[freq_index]);
  }

  /// Work distribution of `count` fresh queued requests back to back
  /// (count >= 1). Cached; growing the cache is thread-unsafe by design
  /// (one model per core policy in the DES), and it may move the cached
  /// distributions, so a returned reference is valid until the next call
  /// at a deeper count. Calls at counts the cache already holds are plain
  /// reads: a caller that shares the model across threads builds its
  /// deepest count first — constructing a JointOptimizer does so for
  /// predictor.max_queue_depth.
  const DiscreteDistribution& fresh_convolution(std::size_t count) const;

  /// `d` convolved with the work PDF, truncated at truncate_eps: one link
  /// of both equivalent-request chains. Bit-identical to
  /// d.convolve(work()).truncated(truncate_eps); the FFT path reads the
  /// work PDF's spectrum from work_spectrum().
  DiscreteDistribution convolve_work(const DiscreteDistribution& d) const;

  /// Link k of an arrival-instant residual chain, as the model caches it:
  /// the CDF table of the reference link (EquivalentQueue::at(k)) and the
  /// truncation start its offset needs. The reference link k >= 1 is
  /// convolve_work(link k-1), whose offset is
  ///   (offset(k-1) + work().offset()) + trim * work().step()
  /// where trim is truncation_range(truncate_eps).first of the untruncated
  /// product. Link 0 is the head, work().remaining_from(...), trim 0.
  struct ResidualLink {
    std::size_t trim = 0;
    std::vector<double> cdf;
  };

  /// The first `depth` (>= 1) links of the residual chain whose head starts
  /// at `start_bin` (work().remaining_start(done).bin; work().size() is the
  /// point mass), built on first use. A chain is built from its head, so
  /// each (start bin, depth) pays depth - 1 convolutions once. Same growth
  /// contract as fresh_convolution: building is thread-unsafe, and only
  /// the single-threaded DES builds (the planner never sees a residual
  /// queue). The returned span is valid until the next call; the links it
  /// points to never move and live as long as the model.
  std::span<const std::unique_ptr<const ResidualLink>> residual_chain(
      std::size_t start_bin, std::size_t depth) const;

  /// Forward spectrum of the work PDF zero-padded to `n` (a power of
  /// two), built on first use. Same contract as fresh_convolution:
  /// building a size is thread-unsafe, reading a built one is not — and
  /// building the fresh chain to a depth builds every size it uses.
  /// References stay valid for the model's lifetime.
  const Spectrum& work_spectrum(std::size_t n) const;

  /// Entry fi is the smallest deadline margin dt = deadline - now at which
  /// one fresh request meets `target_vp` (>= 0) at grid frequency fi:
  /// violation_probability_at(fresh_convolution(1), now, deadline, fi) <=
  /// target_vp holds exactly when dt >= entry fi (docs/DETERMINISM.md).
  /// Non-increasing along the grid; -inf when every margin meets the target
  /// (target_vp >= 1). Throws std::invalid_argument for a negative or NaN
  /// target. Built on the first call per target under a lock that guards
  /// the tables only: the build reads fresh_convolution(1), so, as there,
  /// calls from several threads are safe only while no thread grows the
  /// convolution cache. A table lives as long as the model.
  const std::vector<SimTime>& one_request_thresholds(double target_vp) const;

 private:
  /// d * work, normalized, before truncation: convolve_work's product.
  DiscreteDistribution work_product(const DiscreteDistribution& d) const;

  DiscreteDistribution work_;
  ServiceModelConfig config_;
  std::vector<Freq> grid_;
  std::vector<double> per_cycle_us_;  // per grid frequency, us per cycle
  mutable std::vector<DiscreteDistribution> conv_cache_;  // [k-1] = work^(*k)
  // [log2 n] = work spectrum at transform size n (empty until used); a
  // fixed array so growing one size never moves another.
  mutable std::array<Spectrum, 48> work_spectra_;
  // One-request threshold tables by target VP; a built table never moves.
  // A copy of the model starts with none: they are derived data.
  struct ThresholdCache {
    ThresholdCache() = default;
    ThresholdCache(const ThresholdCache&) {}
    std::mutex mutex;
    std::vector<std::pair<double, std::unique_ptr<const std::vector<SimTime>>>>
        tables;
  };
  mutable ThresholdCache thresholds_;
  // Residual chains by start bin (work_.size() + 1 slots once used). Links
  // are held by pointer, so growing a chain never moves a built link. A
  // copy of the model starts with none, as with the thresholds.
  struct ResidualCache {
    ResidualCache() = default;
    ResidualCache(const ResidualCache&) {}
    std::vector<std::vector<std::unique_ptr<const ResidualLink>>> chains;
  };
  mutable ResidualCache residual_;
};

}  // namespace eprons
