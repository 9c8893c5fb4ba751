// Network slack estimation for the joint optimizer (section IV-A).
//
// "In real deployments, it would be hard to predict network latency based on
// current network conditions ... In EPRONS, we use a portion of the
// application queries to train our model." Our equivalent: Monte-Carlo
// sample the consolidated request/reply paths through the link latency
// model at the placement's offered load, yielding mean/p95 request latency
// and therefore the slack the server layer can borrow.
//
// Sampling is split over `shards` independent streams (each seeded from a
// per-shard Rng::split() of the config seed) so the work parallelizes
// without losing reproducibility: the estimate is a pure function of
// (seed, shards, samples_per_pair) and never of the worker count — the
// serial path runs the same shards in the same merge order.
//
// Draws come in ANTITHETIC PAIRS: one raw uniform per hop drives samples
// 2it (through u) and 2it+1 (through 1-u), halving RNG consumption while
// keeping every sample's marginal distribution exact, and the burst draws
// ride on their branch uniform via the composition trick (see
// LinkLatencyModel::combine_hop_pair). Iterations proceed in fixed blocks,
// and a block consumes the RNG in one fixed order: its exponential
// uniforms in (iteration, hop) order, then its burst and collision
// uniforms in the same (iteration, hop) order — so the whole scheme, block
// size included, is part of the result definition.
//
// Two samplers share that order. The default (fast) path prepares each
// pair's per-hop constants once (net/path_latency.h PreparedHop),
// pre-draws the block's burst/collision uniforms, takes every log through
// the vectorized stats/fast_log block, and combines hop by hop across the
// block's iterations with the vectorized LinkLatencyModel::combine_hop_block
// — each sample still sums its hops in path order. The reference sampler
// is the per-sample oracle: it re-derives the constants — two
// directed-utilization lookups per hop — on every iteration, takes scalar
// logs and draws each hop's burst/collision uniforms as it combines it
// through combine_hop_pair, the one-wide case of the same kernel. Both
// produce the same bits (SIMD lanes run the identical IEEE op sequence);
// `reference_sampling` exists for differential tests and for bisecting a
// determinism regression (docs/DETERMINISM.md).
//
// The merge runs one task per (query, request|total buffer) on the same
// pool: each buffer's mean sums its fixed insertion order, and its
// quantiles come from an exact radix selection (stats/percentile.h
// select_ranks) that returns the same values a full sort would, so the
// merge is parallel and exact.
#pragma once

#include <vector>

#include "consolidate/consolidation.h"
#include "net/path_latency.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace eprons {

struct SlackEstimate {
  /// Per-sub-request network latency over the request leg, us.
  SimTime request_mean = 0.0;
  SimTime request_p95 = 0.0;
  /// Round trip (request + reply legs), us.
  SimTime total_mean = 0.0;
  SimTime total_p95 = 0.0;
  SimTime total_p99 = 0.0;
};

struct SlackEstimatorConfig {
  int samples_per_pair = 400;
  /// Independent sampling shards; results depend on this (it is part of
  /// the seeding scheme), NOT on how many workers execute the shards.
  int shards = 8;
  LinkLatencyModel link_model;
  std::uint64_t seed = 99;
  RuntimeConfig runtime;
};

/// The Monte-Carlo estimator behind one seam: single-shot and batch
/// callers share the same sharding, seeding and merge discipline, so any
/// future caller inherits the determinism contract instead of re-rolling
/// an ad-hoc sampling loop.
class SlackEstimator {
 public:
  explicit SlackEstimator(SlackEstimatorConfig config = {});

  const SlackEstimatorConfig& config() const { return config_; }

  /// One placement to estimate: latency is sampled over every routed
  /// (request, reply) flow-path pair given in `request_flows` /
  /// `reply_flows` (parallel arrays of FlowIds into the placement);
  /// pairs with unrouted paths are skipped. All pointees are borrowed for
  /// the duration of the call.
  struct Query {
    const ConsolidationResult* placement = nullptr;
    const LinkUtilization* offered_load = nullptr;
    const std::vector<FlowId>* request_flows = nullptr;
    const std::vector<FlowId>* reply_flows = nullptr;
  };

  /// Estimates one placement (routes through estimate_many, so single-shot
  /// callers exercise the same code path as the batch). When `pool` is
  /// non-null the shards run on it; otherwise a pool is created for the
  /// call when config.runtime.threads > 1, else the shards run serially.
  /// All modes — and both samplers — return bit-identical estimates.
  SlackEstimate estimate(const Query& query, ThreadPool* pool = nullptr,
                         bool reference_sampling = false) const;

  /// Batch entry point: estimates every query, parallelizing the sampling
  /// over (query, shard) units — so a K sweep with deduplicated placements
  /// keeps every worker busy even when only one unique placement remains —
  /// and the merge over (query, buffer) units. Each query is seeded exactly
  /// as a standalone estimate() — result i is bit-identical to
  /// estimate(queries[i]).
  std::vector<SlackEstimate> estimate_many(const std::vector<Query>& queries,
                                           ThreadPool* pool = nullptr,
                                           bool reference_sampling =
                                               false) const;

 private:
  SlackEstimatorConfig config_;
};

}  // namespace eprons
