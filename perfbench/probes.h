// Per-layer measurement probes for the traced run.
//
// The benchmark adds no tracing inside the library. It measures layers
// from the outside, through public seams only:
//   * decorators the library accepts by interface (a timing Consolidator
//     for EpochControllerConfig::consolidator, a timing DvfsPolicy through
//     SimServer's PolicyFactory);
//   * the library's own planner spans (obs::tracer()) read back in-process;
//   * component replays of the DES layers that run only inside
//     ServingHarness / SearchCluster: the same arrival stream, one SimServer
//     on a benchmark-owned EventQueue, PathLatencyEstimator sampling and
//     JSONL serialization, each timed on its own. Replay costs are per-call
//     estimates; the workloads scale them by the real run's counts.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "consolidate/consolidation.h"
#include "core/scenario.h"
#include "dvfs/policy.h"
#include "net/path_latency.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "power/server_power.h"
#include "serve/arrivals.h"

namespace perfbench {

/// Forwards every call to `inner` and accumulates call count and host time.
/// Thread-safe like the Consolidator contract requires (atomic totals).
class TimingConsolidator final : public eprons::Consolidator {
 public:
  explicit TimingConsolidator(const eprons::Consolidator* inner)
      : inner_(inner) {}

  eprons::ConsolidationResult consolidate(
      const eprons::Topology& topo, const eprons::FlowSet& flows,
      const eprons::ConsolidationConfig& config) const override;
  eprons::ConsolidationResult consolidate_incremental(
      const eprons::Topology& topo, const eprons::FlowSet& flows,
      const eprons::ConsolidationConfig& config,
      const eprons::WarmStartHint* warm) const override;
  const char* name() const override { return inner_->name(); }

  long long calls() const { return calls_.load(); }
  double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }

 private:
  const eprons::Consolidator* inner_;
  mutable std::atomic<long long> calls_{0};
  mutable std::atomic<long long> ns_{0};
};

/// One complete span read back from the library's tracer.
struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// Spans and counters of one traced pass.
struct TraceCapture {
  std::vector<Span> spans;
  eprons::obs::MetricsSnapshot counters;
  /// Consolidations of the pass and their host time (busy time summed over
  /// threads), ms.
  long long consolidate_calls = 0;
  double consolidate_ms = 0.0;
  /// A counter's value, 0 when the pass never touched it.
  double counter(const char* name) const;
};

/// Zeroes the process counters, clears the tracer and enables it.
void begin_trace();
/// Disables the tracer and captures what the pass recorded. Consolidation
/// totals come from `timing`, the decorator the pass planned through, or,
/// where the workload has no seam for one, from the library's
/// consolidate_greedy spans.
TraceCapture end_trace(const TimingConsolidator* timing = nullptr);

/// Sum of the durations of spans named `name`, ms.
double span_total_ms(const std::vector<Span>& spans, const std::string& name);
/// Durations of spans named `name`, ms, in record order.
std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name);
/// Length of the union of the intervals of spans named in `names`, ms.
double span_union_ms(const std::vector<Span>& spans,
                     const std::vector<std::string>& names);
/// Self time of the spans named in `parents`: the length of their union
/// minus the part of it covered by spans named in `children` (on any
/// thread), ms.
double span_self_ms(const std::vector<Span>& spans,
                    const std::vector<std::string>& parents,
                    const std::vector<std::string>& children);

/// Sets the core.* and consolidate.* metrics every workload derives from a
/// traced pass's planner spans and counters (not the plan_* times, which
/// each workload measures its own way). `planner` names the spans that make
/// up planning; planner time is the length of their union and
/// core.plan_self_ms the part of it no consolidation, slack or power
/// prediction span covers. Returns planner time, ms.
double set_planner_metrics(const TraceCapture& trace,
                           const std::vector<std::string>& planner,
                           double traced_wall_s, Outcome* out);

/// Host ns of one obs::to_jsonl call, averaged over 200 passes of
/// `records`. A record that serializes to nothing is a failed check.
template <typename Record>
double record_ns(const std::vector<Record>& records, Checks* checks) {
  constexpr int kPasses = 200;
  std::size_t bytes = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Record& record : records) {
      bytes += eprons::obs::to_jsonl(record).size();
    }
  }
  const double ns = seconds_since(start) * 1e9;
  checks->expect(bytes > 0, "run records serialize");
  return ns / static_cast<double>(
                  std::max<std::size_t>(1, kPasses * records.size()));
}

/// Arrival-generation replay: draws the whole stream of `config` again.
struct ArrivalReplay {
  long long arrivals = 0;
  double ns_per_next = 0.0;
  /// arrivals / (thinning ceiling x horizon): accepted share of candidates.
  double accept_ratio = 0.0;
};
ArrivalReplay replay_arrivals(const eprons::ArrivalStreamConfig& config);

/// Inputs of a one-server DVFS replay.
struct ServerReplayConfig {
  std::string policy = "eprons";
  double target_vp = 0.05;
  /// Sub-request arrival times, us, ascending (one per query: every query
  /// lands one sub-request on each index server).
  std::vector<eprons::SimTime> arrivals;
  /// Server-side deadline budget and request-leg network budget, us.
  eprons::SimTime server_budget = 0.0;
  eprons::SimTime request_budget = 0.0;
  /// Request-leg latency sampler and the path it samples.
  const eprons::PathLatencyEstimator* latency = nullptr;
  const eprons::Path* request_path = nullptr;
  /// Sub-requests simultaneously at the server before new ones are skipped
  /// (the serving harness's fan-out bound); 0 = unbounded.
  std::size_t inflight_cap = 0;
  std::uint64_t seed = 1;
};

struct ServerReplay {
  long long submitted = 0;
  long long completed = 0;
  long long selections = 0;
  /// Completion events superseded by a later frequency decision.
  long long stale_events = 0;
  std::size_t heap_peak = 0;
  double select_ns_p50 = 0.0;
  double select_ns_p99 = 0.0;
  double select_ns_mean = 0.0;
  /// Mean queue length (including the request in service) the policy saw.
  double queue_depth_mean = 0.0;
};
ServerReplay replay_server(const eprons::ServiceModel& service,
                           const eprons::ServerPowerModel& power,
                           const ServerReplayConfig& config);

/// Host ns of one EventQueue schedule + step pair with empty callbacks, at
/// a steady heap depth of `depth` pending events.
double event_queue_ns(std::size_t depth, long long ops);

/// Host ns of one PathLatencyEstimator::sample_latency draw over `paths`.
double net_sample_ns(const eprons::PathLatencyEstimator& latency,
                     const std::vector<eprons::Path>& paths, long long draws);

/// Poisson sub-request arrival times at `rate_per_us` over [0, horizon).
std::vector<eprons::SimTime> poisson_times(double rate_per_us,
                                           eprons::SimTime horizon,
                                           std::uint64_t seed);

/// A planned network for the latency replays: one JointOptimizer plan on
/// `background`, its offered load at the query rate `lambda_per_us`, and the
/// request paths of every index server followed by their reply paths.
struct LatencyFixture {
  std::unique_ptr<eprons::LinkUtilization> load;
  std::unique_ptr<eprons::PathLatencyEstimator> latency;
  std::vector<eprons::Path> paths;
  eprons::SimTime server_budget = 0.0;
  eprons::SimTime latency_constraint = 0.0;
};
LatencyFixture make_latency_fixture(const eprons::Scenario& scenario,
                                    const eprons::JointOptimizerConfig& joint,
                                    const eprons::FlowSet& background,
                                    double utilization, double lambda_per_us);

/// One JSONL epoch log read back from disk, with the attribution ledger
/// identity (total_w == network_total_w + server_total_w) checked per line.
struct JsonlLog {
  long long records = 0;
  long long bytes = 0;
  long long ledger_lines = 0;
  long long ledger_violations = 0;
  /// Mean of `server_budget_us` over epoch_controller records.
  double mean_server_budget_us = 0.0;
};
JsonlLog read_jsonl_log(const std::string& path);

}  // namespace perfbench
