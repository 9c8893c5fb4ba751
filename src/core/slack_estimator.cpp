#include "core/slack_estimator.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
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
    : config_(std::move(config)) {
  if (config_.shards < 1) {
    throw std::invalid_argument("SlackEstimatorConfig.shards must be >= 1");
  }
  if (config_.samples_per_pair < 0) {
    throw std::invalid_argument(
        "SlackEstimatorConfig.samples_per_pair must be >= 0");
  }
}

SlackEstimate SlackEstimator::estimate(const Query& query, ThreadPool* pool,
                                       bool reference_sampling) const {
  return estimate_many({query}, pool, reference_sampling).front();
}

std::vector<SlackEstimate> SlackEstimator::estimate_many(
    const std::vector<Query>& queries, ThreadPool* pool,
    bool reference_sampling) const {
  return estimate_many(
      queries.size(), [&](std::size_t i) { return queries[i]; }, {}, pool,
      reference_sampling);
}

std::vector<SlackEstimate> SlackEstimator::estimate_many(
    std::size_t count, const std::function<Query(std::size_t)>& prepare,
    const std::function<bool(std::size_t, std::size_t)>& same,
    ThreadPool* pool, bool reference_sampling) const {
  std::vector<SlackEstimate> out(count);
  if (count == 0) return out;
  const obs::ScopedSpan span(obs::tracer(), "slack_estimate", "planner",
                             "queries", static_cast<double>(count));
  static obs::Counter& estimate_calls =
      obs::metrics().counter("slack.estimates");
  static obs::Counter& sample_count = obs::metrics().counter("slack.samples");

  const std::size_t shards = static_cast<std::size_t>(config_.shards);
  const std::size_t samples_per_pair =
      static_cast<std::size_t>(config_.samples_per_pair);
  // Every shard draws from its own split() stream of the experiment seed,
  // and every query reseeds from scratch (exactly as a standalone
  // estimate), so the streams — and therefore the estimates — are
  // independent of which worker runs which (query, shard) unit.
  std::vector<Rng> shard_rng;
  shard_rng.reserve(shards);
  Rng base(config_.seed);
  for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(base.split());

  // Per query: its routed (request, reply) pairs in flow order — shard s
  // owns every `shards`-th pair starting at s, so the pair->shard mapping
  // is fixed — its leader, and, for a leader, one flat sample buffer per
  // statistic laid out in shard order with per-shard slices precomputed:
  // shard s writes its (pair, draw)-ordered samples directly into its
  // slice, so a buffer's final order is a pure function of (pairs, shards,
  // samples_per_pair) no matter which worker fills which slice — and the
  // merge below touches no intermediate per-shard vectors. The shards
  // write every slot, so the buffers skip value-initialization.
  struct QueryState {
    Query query;
    std::vector<std::pair<const Path*, const Path*>> pairs;
    std::size_t leader = 0;
    std::unique_ptr<double[]> request;
    std::unique_ptr<double[]> total;
    std::vector<std::size_t> shard_offset;  // shards + 1 entries
  };
  std::vector<QueryState> state(count);
  const auto build = [&](std::size_t q, const Query& query) {
    QueryState& qs = state[q];
    qs.query = query;
    const auto routed = [&](FlowId id) -> const Path* {
      if (id < 0 || static_cast<std::size_t>(id) >=
                        query.placement->flow_paths.size()) {
        return nullptr;
      }
      const Path& p = query.placement->flow_paths[static_cast<std::size_t>(id)];
      return p.size() >= 2 ? &p : nullptr;
    };
    for (std::size_t i = 0; i < query.request_flows->size() &&
                            i < query.reply_flows->size();
         ++i) {
      const Path* req = routed((*query.request_flows)[i]);
      const Path* rep = routed((*query.reply_flows)[i]);
      if (req && rep) qs.pairs.emplace_back(req, rep);
    }
  };

  // The gate between prepare items and sampling units. Queries [0, built)
  // are built (or their prepare threw); leaders are decided for [0,
  // decided), strictly in query order, under the mutex: a decision reads
  // the leaders before it, so `same` runs under the lock too.
  std::mutex mutex;
  std::condition_variable built_cv;
  std::vector<char> done(count, 0);
  std::size_t built = 0;
  std::size_t first_failed = count;
  std::size_t decided = 0;
  std::vector<std::size_t> leaders;
  const auto decide = [&](std::size_t q) {
    QueryState& qs = state[q];
    qs.leader = q;
    if (same) {
      for (std::size_t j : leaders) {
        if (same(j, q)) {
          qs.leader = j;
          return;
        }
      }
    }
    leaders.push_back(q);
    const std::size_t num_pairs = qs.pairs.size();
    qs.shard_offset.resize(shards + 1);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      qs.shard_offset[s] = offset;
      const std::size_t owned =
          num_pairs > s ? (num_pairs - s + shards - 1) / shards : 0;
      offset += owned * samples_per_pair;
    }
    qs.shard_offset[shards] = offset;
    qs.request = std::make_unique_for_overwrite<double[]>(offset);
    qs.total = std::make_unique_for_overwrite<double[]>(offset);
  };

  // parallel_for claims indices in order, so every prepare item is claimed
  // (and running or finished) before any unit can wait on it.
  parallel_for(pool, count + count * shards, [&](std::size_t task) {
    if (task < count) {
      const auto publish = [&](bool ok) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          done[task] = 1;
          if (!ok) first_failed = std::min(first_failed, task);
          while (built < count && done[built]) ++built;
        }
        built_cv.notify_all();
      };
      try {
        build(task, prepare(task));
      } catch (...) {
        publish(false);
        throw;
      }
      publish(true);
      return;
    }
    const std::size_t q = (task - count) / shards;
    const std::size_t s = (task - count) % shards;
    {
      std::unique_lock<std::mutex> lock(mutex);
      built_cv.wait(lock, [&] { return built > q; });
      if (first_failed <= q) return;
      while (decided <= q) decide(decided++);
    }
    const QueryState& qs = state[q];
    const auto& pairs = qs.pairs;
    if (qs.leader != q || pairs.empty() || samples_per_pair == 0) return;
    const obs::ScopedSpan shard_span(obs::tracer(), "slack_shard", "planner",
                                     "shard", static_cast<double>(s));
    Rng rng = shard_rng[s];
    const PathLatencyEstimator estimator(qs.query.offered_load,
                                         config_.link_model);
    const LinkLatencyModel& model = estimator.model();
    double* req_out = qs.request.get() + qs.shard_offset[s];
    double* tot_out = qs.total.get() + qs.shard_offset[s];
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
    // The pair's burst and collision draws, listed once per pair in draw
    // order — (hop, collision?) — and, per block, the lane-0 slot of each.
    std::vector<std::pair<std::size_t, bool>> terms;
    std::vector<double*> term_at;
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
        terms.clear();
        for (std::size_t h = 0; h < hops; ++h) {
          const PreparedHop& hop = hop_at(h);
          if (hop.p_burst > 0.0) terms.emplace_back(h, false);
          if (hop.bursty > 0.0) terms.emplace_back(h, true);
        }
        term_at.resize(terms.size());
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
          for (std::size_t t = 0; t < terms.size(); ++t) {
            const auto [h, collision] = terms[t];
            term_at[t] = (collision ? collision_u : burst_u).data() + h * block;
          }
          for (std::size_t j = 0; j < block; ++j) {
            for (double* lane0 : term_at) lane0[j] = rng.uniform();
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
        // Full pairs, then the even half alone of an odd samples_per_pair's
        // last iteration.
        const std::size_t full =
            it0 + block == iters_total && samples_per_pair % 2 == 1
                ? block - 1
                : block;
        for (std::size_t j = 0; j < full; ++j) {
          *req_out++ = req_e[j];
          *tot_out++ = req_e[j] + rep_e[j];
          *req_out++ = req_o[j];
          *tot_out++ = req_o[j] + rep_o[j];
        }
        if (full < block) {
          *req_out++ = req_e[full];
          *tot_out++ = req_e[full] + rep_e[full];
        }
      }
    }
    sample_count.add(static_cast<std::uint64_t>(qs.shard_offset[s + 1] -
                                                qs.shard_offset[s]));
  });
  estimate_calls.add(static_cast<std::uint64_t>(leaders.size()));

  // Merge: one task per (leader, request|total buffer), each writing only
  // its own fields. A buffer's order is fixed by the shard slices above,
  // whichever worker fills or merges it. Its mean sums that insertion
  // order; its quantiles are PercentileEstimator's nearest ranks, selected
  // exactly by stats/percentile select_ranks (p95 and p99 from one pass
  // of bucket counts), which leaves the buffer as it is.
  parallel_for(pool, leaders.size() * 2, [&](std::size_t task) {
    const std::size_t q = leaders[task / 2];
    const QueryState& qs = state[q];
    const std::size_t n = qs.shard_offset[shards];
    if (n == 0) return;
    const obs::ScopedSpan merge_span(obs::tracer(), "slack_merge", "planner",
                                     "query", static_cast<double>(q));
    if (task % 2 == 0) {
      const std::span<const double> request(qs.request.get(), n);
      out[q].request_mean = insertion_order_mean(request);
      const std::size_t rank = nearest_rank(n, 0.95);
      select_ranks(request, {&rank, 1}, {&out[q].request_p95, 1});
    } else {
      const std::span<const double> total(qs.total.get(), n);
      out[q].total_mean = insertion_order_mean(total);
      const std::size_t ranks[] = {nearest_rank(n, 0.95),
                                   nearest_rank(n, 0.99)};
      double tails[2];
      select_ranks(total, ranks, tails);
      out[q].total_p95 = tails[0];
      out[q].total_p99 = tails[1];
    }
  });
  for (std::size_t q = 0; q < count; ++q) out[q] = out[state[q].leader];
  return out;
}

}  // namespace eprons
