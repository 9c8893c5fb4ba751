#include "core/slack_estimator.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "obs/telemetry.h"
#include "stats/fast_log.h"
#include "stats/percentile.h"

namespace eprons {

namespace {

// Antithetic iterations per draw block. Each block pre-draws its
// exponential uniforms, batch-evaluates their logs (vectorized on the fast
// path), then combines — so this constant is part of the RNG-consumption
// order and therefore of the result definition. 32 iterations keep the
// block's scratch L1-resident for the path lengths we see.
constexpr std::size_t kIterChunk = 32;

// Mean over the buffer's insertion order (shard order, draw order within a
// shard), so the floating-point summation order is pinned.
double insertion_order_mean(std::span<const double> v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

}  // namespace

SlackEstimator::SlackEstimator(SlackEstimatorConfig config)
    : config_(std::move(config)) {}

SlackEstimate SlackEstimator::estimate(const Query& query, ThreadPool* pool,
                                       bool reference_sampling) const {
  return estimate_many({query}, pool, reference_sampling).front();
}

std::vector<SlackEstimate> SlackEstimator::estimate_many(
    const std::vector<Query>& queries, ThreadPool* pool,
    bool reference_sampling) const {
  std::vector<SlackEstimate> out(queries.size());
  if (queries.empty()) return out;
  const obs::ScopedSpan span(obs::tracer(), "slack_estimate", "planner",
                             "queries", static_cast<double>(queries.size()));
  static obs::Counter& estimate_calls =
      obs::metrics().counter("slack.estimates");
  static obs::Counter& sample_count = obs::metrics().counter("slack.samples");
  estimate_calls.add(static_cast<std::uint64_t>(queries.size()));

  // Routed (request, reply) pairs per query, in flow order; shard s owns
  // every `shards`-th pair starting at s, so the pair->shard mapping is
  // fixed.
  struct QueryPairs {
    std::vector<std::pair<const Path*, const Path*>> pairs;
  };
  std::vector<QueryPairs> routed_pairs(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    const auto routed = [&](FlowId id) -> const Path* {
      if (id < 0 || static_cast<std::size_t>(id) >=
                        query.placement->flow_paths.size()) {
        return nullptr;
      }
      const Path& p = query.placement->flow_paths[static_cast<std::size_t>(id)];
      return p.size() >= 2 ? &p : nullptr;
    };
    auto& pairs = routed_pairs[q].pairs;
    for (std::size_t i = 0; i < query.request_flows->size() &&
                            i < query.reply_flows->size();
         ++i) {
      const Path* req = routed((*query.request_flows)[i]);
      const Path* rep = routed((*query.reply_flows)[i]);
      if (req && rep) pairs.emplace_back(req, rep);
    }
  }

  const std::size_t shards =
      static_cast<std::size_t>(config_.shards < 1 ? 1 : config_.shards);
  // Every shard draws from its own split() stream of the experiment seed,
  // and every query reseeds from scratch (exactly as a standalone
  // estimate), so the streams — and therefore the estimates — are
  // independent of which worker runs which (query, shard) unit.
  std::vector<Rng> shard_rng;
  shard_rng.reserve(shards);
  Rng base(config_.seed);
  for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(base.split());

  std::unique_ptr<ThreadPool> local_pool;
  if (!pool && config_.runtime.threads > 1) {
    local_pool = std::make_unique<ThreadPool>(config_.runtime.threads);
    pool = local_pool.get();
  }

  // Each query's samples live in one flat buffer, laid out in shard order
  // with per-shard slices precomputed here: shard s owns pairs s, s+shards,
  // ... and writes its (pair, draw)-ordered samples directly into its
  // slice, so the buffer's final order is a pure function of (pairs,
  // shards, samples_per_pair) no matter which worker fills which slice —
  // and the merge below touches no intermediate per-shard vectors.
  const std::size_t samples_per_pair =
      config_.samples_per_pair < 0
          ? 0
          : static_cast<std::size_t>(config_.samples_per_pair);
  // The shards write every slot, so the buffers skip value-initialization.
  struct QueryBuffers {
    std::unique_ptr<double[]> request;
    std::unique_ptr<double[]> total;
    std::vector<std::size_t> shard_offset;  // shards + 1 entries
  };
  std::vector<QueryBuffers> buffers(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    QueryBuffers& buf = buffers[q];
    const std::size_t num_pairs = routed_pairs[q].pairs.size();
    buf.shard_offset.resize(shards + 1);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      buf.shard_offset[s] = offset;
      const std::size_t owned =
          num_pairs > s ? (num_pairs - s + shards - 1) / shards : 0;
      offset += owned * samples_per_pair;
    }
    buf.shard_offset[shards] = offset;
    buf.request = std::make_unique_for_overwrite<double[]>(offset);
    buf.total = std::make_unique_for_overwrite<double[]>(offset);
  }

  parallel_for(pool, queries.size() * shards, [&](std::size_t task) {
    const std::size_t q = task / shards;
    const std::size_t s = task % shards;
    const auto& pairs = routed_pairs[q].pairs;
    if (pairs.empty() || samples_per_pair == 0) return;
    const obs::ScopedSpan shard_span(obs::tracer(), "slack_shard", "planner",
                                     "shard", static_cast<double>(s));
    Rng rng = shard_rng[s];
    const PathLatencyEstimator estimator(queries[q].offered_load,
                                         config_.link_model);
    const LinkLatencyModel& model = estimator.model();
    double* req_out = buffers[q].request.get() + buffers[q].shard_offset[s];
    double* tot_out = buffers[q].total.get() + buffers[q].shard_offset[s];
    // Per-shard scratch, reused across pairs and blocks. The fast path
    // prepares each pair's hop constants once; the reference path
    // re-derives them from the live utilization tables on every
    // iteration.
    std::vector<PreparedHop> request_hops;
    std::vector<PreparedHop> reply_hops;
    std::vector<double> log_e;
    std::vector<double> log_o;
    std::vector<double> burst_u;
    std::vector<double> collision_u;
    SimTime req_e[kIterChunk];
    SimTime req_o[kIterChunk];
    SimTime rep_e[kIterChunk];
    SimTime rep_o[kIterChunk];
    // Samples come in antithetic pairs: iteration `it` yields samples 2it
    // (even partner) and 2it+1 (odd partner; an odd samples_per_pair
    // draws the final full pair — fixed RNG consumption — and discards
    // the odd half). Iterations proceed in blocks of kIterChunk, and a
    // block consumes the RNG in one fixed order: first its exponential
    // uniforms in (iteration, hop) order — request hops then reply hops —
    // then its burst/collision uniforms in the same (iteration, hop)
    // order, burst before collision within a hop, each only where the
    // hop has that term. Every per-block array is hop-major (hop h, lane
    // j at h * block + j), so each hop's lanes are contiguous.
    const std::size_t iters_total = (samples_per_pair + 1) / 2;
    for (std::size_t i = s; i < pairs.size(); i += shards) {
      const auto& [req, rep] = pairs[i];
      const std::size_t request_len = req->size() - 1;
      const std::size_t reply_len = rep->size() - 1;
      const std::size_t hops = request_len + reply_len;
      const auto hop_at = [&](std::size_t h) -> const PreparedHop& {
        return h < request_len ? request_hops[h] : reply_hops[h - request_len];
      };
      if (!reference_sampling) {
        estimator.prepare(*req, &request_hops);
        estimator.prepare(*rep, &reply_hops);
      }
      for (std::size_t it0 = 0; it0 < iters_total; it0 += kIterChunk) {
        const std::size_t block = std::min(kIterChunk, iters_total - it0);
        const std::size_t n = block * hops;
        // log_e holds the raw uniforms until the block log pass below
        // overwrites them in place.
        log_e.resize(n);
        for (std::size_t j = 0; j < block; ++j) {
          for (std::size_t h = 0; h < hops; ++h) {
            double u = rng.uniform();
            while (u == 0.0) u = rng.uniform();
            // u in (0,1), 1-u in (0,1]; log(1) == 0 is a valid Exp draw.
            log_e[h * block + j] = u;
          }
        }
        if (reference_sampling) {
          // The per-sample oracle: re-derive the hop constants, take
          // scalar logs, and draw each hop's burst/collision uniforms as
          // its pair is combined — the same RNG order, sample by sample.
          for (std::size_t j = 0; j < block; ++j) {
            estimator.prepare(*req, &request_hops);
            estimator.prepare(*rep, &reply_hops);
            req_e[j] = req_o[j] = rep_e[j] = rep_o[j] = 0.0;
            SimTime hop_e;
            SimTime hop_o;
            for (std::size_t h = 0; h < hops; ++h) {
              const double u = log_e[h * block + j];
              model.combine_hop_pair(hop_at(h), fast_log(u),
                                     fast_log(1.0 - u), rng, &hop_e, &hop_o);
              const bool request = h < request_len;
              (request ? req_e : rep_e)[j] += hop_e;
              (request ? req_o : rep_o)[j] += hop_o;
            }
          }
        } else {
          // Pre-draw the burst/collision uniforms, then take every log of
          // the block in one vectorized pass.
          burst_u.resize(n);
          collision_u.resize(n);
          for (std::size_t j = 0; j < block; ++j) {
            for (std::size_t h = 0; h < hops; ++h) {
              const PreparedHop& hop = hop_at(h);
              if (hop.p_burst > 0.0) burst_u[h * block + j] = rng.uniform();
              if (hop.bursty > 0.0) collision_u[h * block + j] = rng.uniform();
            }
          }
          log_o.resize(n);
          fast_log_block_antithetic(log_e.data(), log_e.data(), log_o.data(),
                                    n);
          // Combine hop by hop across the block's lanes; each lane adds
          // its hops in path order, as the per-sample sampler does.
          std::fill_n(req_e, block, 0.0);
          std::fill_n(req_o, block, 0.0);
          std::fill_n(rep_e, block, 0.0);
          std::fill_n(rep_o, block, 0.0);
          for (std::size_t h = 0; h < hops; ++h) {
            const bool request = h < request_len;
            const std::size_t at = h * block;
            model.combine_hop_block(hop_at(h), log_e.data() + at,
                                    log_o.data() + at, burst_u.data() + at,
                                    collision_u.data() + at, block,
                                    request ? req_e : rep_e,
                                    request ? req_o : rep_o);
          }
        }
        for (std::size_t j = 0; j < block; ++j) {
          *req_out++ = req_e[j];
          *tot_out++ = req_e[j] + rep_e[j];
          if (2 * (it0 + j) + 1 < samples_per_pair) {
            *req_out++ = req_o[j];
            *tot_out++ = req_o[j] + rep_o[j];
          }
        }
      }
    }
    sample_count.add(static_cast<std::uint64_t>(
        buffers[q].shard_offset[s + 1] - buffers[q].shard_offset[s]));
  });

  // Merge: one task per (query, request|total buffer), each writing only
  // its own fields. A buffer's order is fixed by the shard slices above,
  // whichever worker fills or merges it. Its mean sums that insertion
  // order; its quantiles are PercentileEstimator's nearest ranks, selected
  // exactly by stats/percentile select_ranks (p95 and p99 from one pass
  // of bucket counts), which leaves the buffer as it is.
  parallel_for(pool, queries.size() * 2, [&](std::size_t task) {
    const std::size_t q = task / 2;
    const QueryBuffers& buf = buffers[q];
    const std::size_t n = buf.shard_offset[shards];
    if (n == 0) return;
    const obs::ScopedSpan merge_span(obs::tracer(), "slack_merge", "planner",
                                     "query", static_cast<double>(q));
    if (task % 2 == 0) {
      const std::span<const double> request(buf.request.get(), n);
      out[q].request_mean = insertion_order_mean(request);
      const std::size_t rank = nearest_rank(n, 0.95);
      select_ranks(request, {&rank, 1}, {&out[q].request_p95, 1});
    } else {
      const std::span<const double> total(buf.total.get(), n);
      out[q].total_mean = insertion_order_mean(total);
      const std::size_t ranks[] = {nearest_rank(n, 0.95),
                                   nearest_rank(n, 0.99)};
      double tails[2];
      select_ranks(total, ranks, tails);
      out[q].total_p95 = tails[0];
      out[q].total_p99 = tails[1];
    }
  });
  return out;
}

}  // namespace eprons
