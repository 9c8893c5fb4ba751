#include "core/slack_estimator.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
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

using PathPairs = std::vector<std::pair<const Path*, const Path*>>;

// One (query, shard) unit: shard `shard` owns every `shards`-th pair
// starting at `shard`, and writes its (pair, draw)-ordered samples to
// req_out / tot_out.
struct ShardJob {
  const PathPairs* pairs = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t samples_per_pair = 0;
  const PathLatencyEstimator* estimator = nullptr;
  double* req_out = nullptr;
  double* tot_out = nullptr;
};

// Per-lane path sums of one block: the even and odd partners' request and
// reply legs.
struct BlockSums {
  alignas(64) SimTime req_e[kIterChunk];
  alignas(64) SimTime req_o[kIterChunk];
  alignas(64) SimTime rep_e[kIterChunk];
  alignas(64) SimTime rep_o[kIterChunk];
};

// Writes a block's samples: full pairs, then the even half alone of an odd
// samples_per_pair's last iteration (`odd_tail`).
[[gnu::always_inline]] inline void emit_block(const BlockSums& sums,
                                              std::size_t block, bool odd_tail,
                                              double*& req_out,
                                              double*& tot_out) {
  const std::size_t full = odd_tail ? block - 1 : block;
  for (std::size_t j = 0; j < full; ++j) {
    *req_out++ = sums.req_e[j];
    *tot_out++ = sums.req_e[j] + sums.rep_e[j];
    *req_out++ = sums.req_o[j];
    *tot_out++ = sums.req_o[j] + sums.rep_o[j];
  }
  if (odd_tail) {
    *req_out++ = sums.req_e[full];
    *tot_out++ = sums.req_e[full] + sums.rep_e[full];
  }
}

// Samples come in antithetic pairs: iteration `it` yields samples 2it
// (even partner) and 2it+1 (odd partner; an odd samples_per_pair draws
// the final full pair — fixed RNG consumption — and discards the odd
// half). Iterations proceed in blocks of kIterChunk, and a block consumes
// the RNG in one fixed order: first its exponential uniforms in
// (iteration, hop) order — request hops then reply hops — each redrawn
// while it is 0.0, then its burst/collision uniforms in the same
// (iteration, hop) order, burst before collision within a hop, each only
// where the hop has that term. Both samplers below consume that order.

// The per-sample oracle: steps a scalar Rng, re-derives the hop constants
// on every iteration, takes scalar logs, and draws each hop's
// burst/collision uniforms as its pair is combined.
void sample_reference(const ShardJob& job, Rng rng) {
  const PathLatencyEstimator& estimator = *job.estimator;
  const LinkLatencyModel& model = estimator.model();
  const PathPairs& pairs = *job.pairs;
  double* req_out = job.req_out;
  double* tot_out = job.tot_out;
  std::vector<PreparedHop> request_hops;
  std::vector<PreparedHop> reply_hops;
  std::vector<double> uniforms;
  BlockSums sums;
  const std::size_t iters_total = (job.samples_per_pair + 1) / 2;
  for (std::size_t i = job.shard; i < pairs.size(); i += job.shards) {
    const auto& [req, rep] = pairs[i];
    const std::size_t request_len = req->size() - 1;
    const std::size_t hops = request_len + rep->size() - 1;
    for (std::size_t it0 = 0; it0 < iters_total; it0 += kIterChunk) {
      const std::size_t block = std::min(kIterChunk, iters_total - it0);
      uniforms.resize(block * hops);
      for (std::size_t j = 0; j < block; ++j) {
        for (std::size_t h = 0; h < hops; ++h) {
          double u = rng.uniform();
          while (u == 0.0) u = rng.uniform();
          // u in (0,1), 1-u in (0,1]; log(1) == 0 is a valid Exp draw.
          uniforms[h * block + j] = u;
        }
      }
      for (std::size_t j = 0; j < block; ++j) {
        estimator.prepare(*req, &request_hops);
        estimator.prepare(*rep, &reply_hops);
        sums.req_e[j] = sums.req_o[j] = sums.rep_e[j] = sums.rep_o[j] = 0.0;
        SimTime hop_e;
        SimTime hop_o;
        for (std::size_t h = 0; h < hops; ++h) {
          const bool request = h < request_len;
          const PreparedHop& hop =
              request ? request_hops[h] : reply_hops[h - request_len];
          const double u = uniforms[h * block + j];
          model.combine_hop_pair(hop, fast_log(u), fast_log(1.0 - u), rng,
                                 &hop_e, &hop_o);
          (request ? sums.req_e : sums.rep_e)[j] += hop_e;
          (request ? sums.req_o : sums.rep_o)[j] += hop_o;
        }
      }
      emit_block(sums, block,
                 it0 + block == iters_total && job.samples_per_pair % 2 == 1,
                 req_out, tot_out);
    }
  }
}

// The fast sampler: each pair's hop constants prepared once; every block
// arrays hop-major (hop h, lane j at h * lanes + j), `lanes` being the
// block's iterations rounded up to whole 8-wide vectors so each body's lane
// loops run full vectors (the padding lanes compute values nobody reads);
// the uniforms read from the window straight into those rows; one
// vectorized log pass; then the combine hop by hop across the lanes, each
// lane adding its hops in path order as the per-sample sampler does.
// Always inlined into one wrapper per instruction-set body below.
[[gnu::always_inline]] inline void sample_fast(const ShardJob& job,
                                               UniformWindow& window) {
  const PathLatencyEstimator& estimator = *job.estimator;
  const LinkLatencyModel& model = estimator.model();
  const PathPairs& pairs = *job.pairs;
  double* req_out = job.req_out;
  double* tot_out = job.tot_out;
  std::vector<PreparedHop> hops_of_pair;
  std::vector<PreparedHop> reply_hops;
  std::vector<double> log_e;
  std::vector<double> log_o;
  std::vector<double> burst_u;
  std::vector<double> collision_u;
  // Where each draw of an iteration lands: per hop, its row of log_e; per
  // burst/collision term, in draw order, its hop's row of burst_u or
  // collision_u.
  std::vector<double*> hop_row;
  std::vector<double*> term_row;
  BlockSums sums;
  const std::size_t iters_total = (job.samples_per_pair + 1) / 2;
  for (std::size_t i = job.shard; i < pairs.size(); i += job.shards) {
    const auto& [req, rep] = pairs[i];
    const std::size_t request_len = req->size() - 1;
    estimator.prepare(*req, &hops_of_pair);
    estimator.prepare(*rep, &reply_hops);
    hops_of_pair.insert(hops_of_pair.end(), reply_hops.begin(),
                        reply_hops.end());
    const std::size_t hops = hops_of_pair.size();
    for (std::size_t it0 = 0; it0 < iters_total; it0 += kIterChunk) {
      const std::size_t block = std::min(kIterChunk, iters_total - it0);
      const std::size_t lanes =
          (block + kUniformLanes - 1) / kUniformLanes * kUniformLanes;
      const std::size_t n = hops * lanes;
      log_e.resize(n);
      log_o.resize(n);
      burst_u.resize(n);
      collision_u.resize(n);
      hop_row.resize(hops);
      term_row.clear();
      for (std::size_t h = 0; h < hops; ++h) {
        hop_row[h] = log_e.data() + h * lanes;
        if (hops_of_pair[h].p_burst > 0.0) {
          term_row.push_back(burst_u.data() + h * lanes);
        }
        if (hops_of_pair[h].bursty > 0.0) {
          term_row.push_back(collision_u.data() + h * lanes);
        }
      }
      window.take_columns<true>(block, hops, hop_row.data());
      for (std::size_t h = 0; h < hops; ++h) {
        std::fill(hop_row[h] + block, hop_row[h] + lanes, 0.5);
      }
      window.take_columns<false>(block, term_row.size(), term_row.data());
      fast_log_block_antithetic(log_e.data(), log_e.data(), log_o.data(), n);
      std::fill_n(sums.req_e, lanes, 0.0);
      std::fill_n(sums.req_o, lanes, 0.0);
      std::fill_n(sums.rep_e, lanes, 0.0);
      std::fill_n(sums.rep_o, lanes, 0.0);
      for (std::size_t h = 0; h < hops; ++h) {
        const bool request = h < request_len;
        const std::size_t at = h * lanes;
        model.combine_hop_block(hops_of_pair[h], log_e.data() + at,
                                log_o.data() + at, burst_u.data() + at,
                                collision_u.data() + at, lanes,
                                request ? sums.req_e : sums.rep_e,
                                request ? sums.req_o : sums.rep_o);
      }
      emit_block(sums, block,
                 it0 + block == iters_total && job.samples_per_pair % 2 == 1,
                 req_out, tot_out);
    }
  }
}

void sample_fast_baseline(const ShardJob& job, UniformWindow& window) {
  sample_fast(job, window);
}

#if EPRONS_SIMD_BODIES
EPRONS_TARGET_AVX2 void sample_fast_avx2(const ShardJob& job,
                                         UniformWindow& window) {
  sample_fast(job, window);
}

EPRONS_TARGET_AVX512 void sample_fast_avx512(const ShardJob& job,
                                             UniformWindow& window) {
  sample_fast(job, window);
}
#endif

void sample_fast_on(SimdBody body, const ShardJob& job,
                    UniformWindow& window) {
  switch (body) {
#if EPRONS_SIMD_BODIES
    case SimdBody::kAvx512:
      sample_fast_avx512(job, window);
      return;
    case SimdBody::kAvx2:
      sample_fast_avx2(job, window);
      return;
#endif
    default:
      sample_fast_baseline(job, window);
      return;
  }
}

}  // namespace

SlackEstimator::SlackEstimator(SlackEstimatorConfig config)
    : config_(std::move(config)),
      checkpoints_(config_.seed,
                   static_cast<std::size_t>(std::max(config_.shards, 0))) {
  if (config_.shards < 1) {
    throw std::invalid_argument("SlackEstimatorConfig.shards must be >= 1");
  }
  if (config_.samples_per_pair < 0) {
    throw std::invalid_argument(
        "SlackEstimatorConfig.samples_per_pair must be >= 0");
  }
}

SlackEstimator::SampleBuffer SlackEstimator::borrow(std::size_t size) const {
  // Buffers that fit rank first, the smallest of them; then the largest.
  const auto rank = [size](const SampleBuffer& buffer) {
    return buffer.capacity >= size
               ? std::pair{0, buffer.capacity}
               : std::pair{1, std::numeric_limits<std::size_t>::max() -
                                  buffer.capacity};
  };
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  const auto best = std::min_element(
      pool_.begin(), pool_.end(),
      [&](const SampleBuffer& a, const SampleBuffer& b) {
        return rank(a) < rank(b);
      });
  SampleBuffer buffer;
  if (best != pool_.end()) {
    buffer = std::move(*best);
    *best = std::move(pool_.back());
    pool_.pop_back();
  }
  if (buffer.capacity < size) {
    // The shards write every slot, so the buffer skips value-initialization.
    buffer.data = std::make_unique_for_overwrite<double[]>(size);
    buffer.capacity = size;
  }
  return buffer;
}

void SlackEstimator::give_back(std::vector<SampleBuffer>& buffers) const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  for (SampleBuffer& buffer : buffers) pool_.push_back(std::move(buffer));
  buffers.clear();
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
  // and every query restarts it from its first draw (exactly as a
  // standalone estimate), so the streams — and therefore the estimates —
  // are independent of which worker runs which (query, shard) unit. The
  // fast sampler reads shard s's stream through checkpoints_; the
  // reference sampler steps a copy of the split() generator.
  std::vector<Rng> shard_rng;
  if (reference_sampling) {
    shard_rng.reserve(shards);
    Rng base(config_.seed);
    for (std::size_t s = 0; s < shards; ++s) shard_rng.push_back(base.split());
  }

  // Per query: its routed (request, reply) pairs in flow order — shard s
  // owns every `shards`-th pair starting at s, so the pair->shard mapping
  // is fixed — its leader, and, for a leader, one flat sample buffer per
  // statistic laid out in shard order with per-shard slices precomputed:
  // shard s writes its (pair, draw)-ordered samples directly into its
  // slice, so a buffer's final order is a pure function of (pairs, shards,
  // samples_per_pair) no matter which worker fills which slice — and the
  // merge below touches no intermediate per-shard vectors. The buffers
  // are borrowed from the pool and returned when the call ends (also when
  // a prepare item throws).
  struct QueryState {
    Query query;
    PathPairs pairs;
    std::size_t leader = 0;
    double* request = nullptr;
    double* total = nullptr;
    std::vector<std::size_t> shard_offset;  // shards + 1 entries
  };
  std::vector<QueryState> state(count);
  struct Lease {
    const SlackEstimator* owner;
    std::vector<SampleBuffer> buffers;
    ~Lease() { owner->give_back(buffers); }
  } lease{this, {}};
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
  // the leaders before it, so `same` runs under the lock too — and so do
  // the leaders' borrows, so the pool serves them in query order.
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
    if (offset == 0) return;
    lease.buffers.push_back(borrow(offset));
    qs.request = lease.buffers.back().data.get();
    lease.buffers.push_back(borrow(offset));
    qs.total = lease.buffers.back().data.get();
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
    if (qs.leader != q || qs.pairs.empty() || samples_per_pair == 0) return;
    const obs::ScopedSpan shard_span(obs::tracer(), "slack_shard", "planner",
                                     "shard", static_cast<double>(s));
    const PathLatencyEstimator estimator(qs.query.offered_load,
                                         config_.link_model);
    ShardJob job;
    job.pairs = &qs.pairs;
    job.shard = s;
    job.shards = shards;
    job.samples_per_pair = samples_per_pair;
    job.estimator = &estimator;
    job.req_out = qs.request + qs.shard_offset[s];
    job.tot_out = qs.total + qs.shard_offset[s];
    if (reference_sampling) {
      sample_reference(job, shard_rng[s]);
    } else {
      UniformWindow window(&checkpoints_, s, body_);
      sample_fast_on(body_, job, window);
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
      const std::span<const double> request(qs.request, n);
      out[q].request_mean = insertion_order_mean(request);
      const std::size_t rank = nearest_rank(n, 0.95);
      select_ranks(request, {&rank, 1}, {&out[q].request_p95, 1});
    } else {
      const std::span<const double> total(qs.total, n);
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
