// Flow-level link latency model with the Fig. 1 utilization-latency knee.
//
// The paper measured search-query latency against link utilization on its
// MiniNet platform and observed: flat, microsecond-scale latency at low
// utilization; a sharp "knee" beyond which queueing pushes latency from
// ~139 us to ~12 ms. We reproduce that shape with an M/M/1 sojourn-time
// model, capped by a finite buffer:
//
//   S      = transmission time of an average packet
//   W(rho) = S / (1 - rho)            (mean sojourn)
//   capped at S * buffer_packets      (full buffer)
//
// Per-packet samples are exponential with mean W(rho) (M/M/1 sojourn is
// exponential), truncated at the buffer cap — giving realistic tails for
// the 95th/99th percentile figures.
//
// A hop is drawn in two steps: prepare_hop derives the hop's sampling
// constants (PreparedHop) from its utilization and bursty utilization, and
// sample_prepared draws one latency from them. That pair is the one
// per-hop draw: the DES, PathLatencyEstimator::sample_latency and the
// Fig. 1 bench all run it.
//
// The per-hop antithetic arithmetic has one definition,
// LinkLatencyModel::combine_hop_block: a branch-free lane loop that the
// slack estimator's fast sampler runs hop by hop over a block of pre-drawn
// uniforms (always inlined, so each of the sampler's instruction-set
// bodies vectorizes it at its own width), and that its per-sample
// reference sampler runs one lane wide through combine_hop_pair.
//
// The constructor rejects a configuration that would sample nonsense:
// non-positive capacity or packet size, a buffer under one packet, a
// negative or NaN base latency, burst coefficient or burst length, or a
// knee outside [0, 1].
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/rng.h"
#include "util/types.h"

namespace eprons {

/// Per-hop sampling constants, precomputed from a hop's (utilization,
/// bursty utilization) pair by LinkLatencyModel::prepare_hop, so a caller
/// that draws a hop many times (the DES per request path, the slack
/// estimator's Monte-Carlo) derives them once.
struct PreparedHop {
  /// Mean M/M/1 sojourn at this hop's utilization, us (exponential mean).
  SimTime sojourn_mean = 0.0;
  /// Full-buffer queueing cap, us.
  SimTime cap = 0.0;
  /// Probability of landing behind a standing burst (burst_coeff * t^2).
  double p_burst = 0.0;
  /// Standing-burst delay upper bound t * cap, us.
  SimTime burst_window = 0.0;
  /// Clamped elephant duty cycle (collision probability).
  double bursty = 0.0;
};

struct LinkLatencyConfig {
  Bandwidth capacity_mbps = 1000.0;
  double avg_packet_bytes = 1500.0;
  /// Fixed per-hop cost (propagation + switch pipeline), us. Calibrated so
  /// a 6-hop inter-pod path at low utilization costs ~139 us end to end
  /// (Fig. 1's low-utilization anchor).
  double base_latency_us = 11.0;
  /// Queue capacity in packets; bounds worst-case queueing delay.
  double buffer_packets = 1000.0;
  /// Burst-queue mixture above the knee: elephant background flows send in
  /// line-rate bursts, so once utilization passes `knee_utilization` a
  /// growing fraction of packets land behind a standing queue. With
  /// t = (util - knee) / (1 - knee) clamped to [0,1]:
  ///   P[burst] = burst_coeff * t^2,  burst delay ~ U(0, t * buffer delay).
  /// Below the knee the model is pure M/M/1 sojourn — matching Fig. 1's
  /// flat-then-explosive measured curve and Fig. 10's ms-scale tails after
  /// aggressive consolidation. Set burst_coeff = 0 for pure M/M/1.
  double burst_coeff = 0.5;
  double knee_utilization = 0.70;
  /// Elephant burst collision: background flows transmit in line-rate
  /// trains of ~burst_len_us; a packet sharing the link collides with an
  /// ON period with probability ~ bursty utilization (the duty cycle) and
  /// then waits the residual of the train. This is what makes consolidating
  /// latency-sensitive flows onto elephant links expensive (Fig. 2/10/11)
  /// and what the scale factor K buys relief from.
  double burst_len_us = 3000.0;
};

class LinkLatencyModel {
 public:
  // Implicit on purpose: configs convert to models in aggregate
  // initializers throughout the experiment structs. Throws
  // std::invalid_argument unless capacity_mbps > 0, avg_packet_bytes > 0,
  // buffer_packets >= 1, base_latency_us, burst_coeff and burst_len_us are
  // >= 0 (not NaN) and knee_utilization is in [0, 1].
  LinkLatencyModel(LinkLatencyConfig config = {});  // NOLINT

  const LinkLatencyConfig& config() const { return config_; }

  /// Transmission time of one average packet on this link, us.
  SimTime packet_service_time() const;

  /// Mean per-hop latency at the given utilization (clamped to [0, ~1)).
  SimTime mean_latency(double utilization) const;

  /// Precomputes the sampling constants of one hop: utilization is
  /// clamped to [0, 1]; `bursty_utilization`, the duty cycle of line-rate
  /// background trains on the link, is clamped to [0, 1] as the collision
  /// probability.
  PreparedHop prepare_hop(double utilization, double bursty_utilization) const;

  /// Draws one packet's per-hop latency from a prepared hop: base +
  /// min(Exp(mean sojourn) + standing-burst delay, full-buffer delay) +
  /// elephant-collision residual. The burst uniform is drawn only when
  /// p_burst > 0 and the collision uniform only when bursty > 0. Inline:
  /// the DES draws every request path hop by hop through it.
  SimTime sample_prepared(const PreparedHop& hop, Rng& rng) const {
    SimTime queueing = rng.exponential(hop.sojourn_mean);
    if (hop.p_burst > 0.0 && rng.bernoulli(hop.p_burst)) {
      // Landed behind a standing burst of background packets.
      queueing += rng.uniform(0.0, hop.burst_window);
    }
    SimTime latency = config_.base_latency_us + std::min(queueing, hop.cap);
    if (hop.bursty > 0.0 && rng.bernoulli(hop.bursty)) {
      // Collided with an elephant train: wait out its residual.
      latency += rng.uniform(0.0, config_.burst_len_us);
    }
    return latency;
  }

  /// One ANTITHETIC PAIR of per-hop latencies from the exponential logs
  /// (log u, log(1-u)) of one raw uniform u, drawing the hop's burst and
  /// collision uniforms from `rng` in the fixed order (burst, collision) —
  /// the step of the slack estimator's per-sample reference sampler.
  /// Classic Monte-Carlo variance reduction: each raw uniform u drives two
  /// samples, one through u and one through 1-u, so a draw pair costs one
  /// RNG advance + two log evaluations instead of two of each; the
  /// negative correlation between partners tightens the mean estimate for
  /// free. Burst draws use the composition trick — conditional on u < p,
  /// u/p is itself an exact U(0,1), so the burst position rides on the
  /// branch uniform instead of consuming another draw. Every sample's
  /// marginal distribution is exactly the per-draw model's (base +
  /// min(Exp + burst, cap) + collision residual); only the pairing is
  /// correlated.
  ///
  /// Bit-exactness contract: this is the one-wide case of
  /// combine_hop_block, so the reference sampler and the estimator's block
  /// sampler share one definition of the per-hop arithmetic and agree bit
  /// for bit. fast_log (not std::log) keeps the transform's bits owned by
  /// this repo, not the host libm.
  void combine_hop_pair(const PreparedHop& hop, double log_e, double log_o,
                        Rng& rng, SimTime* even, SimTime* odd) const {
    const double burst_u = hop.p_burst > 0.0 ? rng.uniform() : 0.0;
    const double collision_u = hop.bursty > 0.0 ? rng.uniform() : 0.0;
    SimTime sum_e = 0.0;
    SimTime sum_o = 0.0;
    combine_hop_block(hop, &log_e, &log_o, &burst_u, &collision_u, 1, &sum_e,
                      &sum_o);
    *even = sum_e;
    *odd = sum_o;
  }

  /// combine_hop_pair over `lanes` independent draws of one hop, adding
  /// each lane's antithetic pair to its running path sums sum_e[j] and
  /// sum_o[j] (callers start the sums at 0.0 and add hops in path order,
  /// so every sample's sum is the per-sample samplers' sum). Lane j reads
  /// log_e[j], log_o[j] and, when the hop has the term, the burst uniform
  /// burst_u[j] (p_burst > 0) and the collision uniform collision_u[j]
  /// (bursty > 0); the other array may be unset. The data-dependent
  /// branches are selects between two computed values, so the lane loop
  /// vectorizes and every lane runs the scalar op sequence. Always
  /// inlined: each of the slack sampler's instruction-set bodies
  /// (util/simd.h) compiles the lane loops at its own vector width.
  [[gnu::always_inline]] void combine_hop_block(
      const PreparedHop& hop, const double* log_e, const double* log_o,
      const double* burst_u, const double* collision_u, std::size_t lanes,
      SimTime* sum_e, SimTime* sum_o) const {
    if (hop.p_burst > 0.0) {
      if (hop.bursty > 0.0) {
        combine_lanes<true, true>(hop, log_e, log_o, burst_u, collision_u,
                                  lanes, sum_e, sum_o);
      } else {
        combine_lanes<true, false>(hop, log_e, log_o, burst_u, collision_u,
                                   lanes, sum_e, sum_o);
      }
    } else if (hop.bursty > 0.0) {
      combine_lanes<false, true>(hop, log_e, log_o, burst_u, collision_u,
                                 lanes, sum_e, sum_o);
    } else {
      combine_lanes<false, false>(hop, log_e, log_o, burst_u, collision_u,
                                  lanes, sum_e, sum_o);
    }
  }

  /// Mean including the burst-collision expectation (for planning).
  SimTime mean_latency(double utilization, double bursty_utilization) const;

  /// Upper bound of any sample (base + full buffer drain).
  SimTime max_latency() const;

 private:
  /// Mean queueing+transmission sojourn (without base), us.
  SimTime sojourn_mean(double utilization) const;
  /// Burst mixture intensity t in [0,1]; 0 below the knee.
  double burst_intensity(double utilization) const;

  /// combine_hop_block's lane loop for one (burst, collision) term shape.
  template <bool kBurst, bool kCollision>
  [[gnu::always_inline]] void combine_lanes(
      const PreparedHop& hop, const double* log_e, const double* log_o,
      const double* burst_u, const double* collision_u, std::size_t lanes,
      SimTime* sum_e, SimTime* sum_o) const {
    const double base = config_.base_latency_us;
    const double burst_len = config_.burst_len_us;
    const double sojourn = hop.sojourn_mean;
    const double cap = hop.cap;
    const double p_burst = hop.p_burst;
    const double window = hop.burst_window;
    const double bursty = hop.bursty;
    for (std::size_t j = 0; j < lanes; ++j) {
      SimTime queue_e = sojourn * -log_e[j];
      SimTime queue_o = sojourn * -log_o[j];
      if constexpr (kBurst) {
        // Landed behind a standing burst of background packets: u < p
        // for the even partner, 1-u < p for the odd one.
        const double b = burst_u[j];
        const double bo = 1.0 - b;
        const SimTime burst_e = queue_e + (b / p_burst) * window;
        const SimTime burst_o = queue_o + (bo / p_burst) * window;
        queue_e = b < p_burst ? burst_e : queue_e;
        queue_o = bo < p_burst ? burst_o : queue_o;
      }
      SimTime lat_e = base + std::min(queue_e, cap);
      SimTime lat_o = base + std::min(queue_o, cap);
      if constexpr (kCollision) {
        // Collided with an elephant train: wait out its residual.
        const double t = collision_u[j];
        const double to = 1.0 - t;
        const SimTime hit_e = lat_e + (t / bursty) * burst_len;
        const SimTime hit_o = lat_o + (to / bursty) * burst_len;
        lat_e = t < bursty ? hit_e : lat_e;
        lat_o = to < bursty ? hit_o : lat_o;
      }
      sum_e[j] += lat_e;
      sum_o[j] += lat_o;
    }
  }

  LinkLatencyConfig config_;
};

}  // namespace eprons
