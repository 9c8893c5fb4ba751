#include "probes.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_util.h"
#include "dvfs/policies.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/server.h"
#include "util/rng.h"

namespace perfbench {

using namespace eprons;

namespace {

long long elapsed_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Times every frequency decision of the wrapped policy and records the
/// queue length it decided over.
class TimingPolicy final : public DvfsPolicy {
 public:
  struct Samples {
    std::vector<double> ns;
    double depth_sum = 0.0;
  };

  TimingPolicy(std::unique_ptr<DvfsPolicy> inner, Samples* samples)
      : DvfsPolicy(&inner->model()),
        inner_(std::move(inner)),
        samples_(samples) {}

  Freq select_frequency(SimTime now, std::span<const QueuedRequest> queue,
                        Work in_service_done) override {
    const auto start = Clock::now();
    const Freq f = inner_->select_frequency(now, queue, in_service_done);
    samples_->ns.push_back(static_cast<double>(elapsed_ns(start)));
    samples_->depth_sum += static_cast<double>(queue.size());
    return f;
  }
  void on_request_complete(SimTime now, SimTime latency,
                           SimTime constraint) override {
    inner_->on_request_complete(now, latency, constraint);
  }
  void on_network_congestion(bool congested) override {
    inner_->on_network_congestion(congested);
  }
  bool reorder_edf() const override { return inner_->reorder_edf(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<DvfsPolicy> inner_;
  Samples* samples_;
};

/// Number after `key` in `line`, or false when absent / not a number.
bool field(const std::string& line, const char* key, double* out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

bool text_field(const std::string& line, const char* key, std::string* out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + std::strlen(key);
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

}  // namespace

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

ConsolidationResult TimingConsolidator::consolidate(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config) const {
  const auto start = Clock::now();
  ConsolidationResult result = inner_->consolidate(topo, flows, config);
  ns_ += elapsed_ns(start);
  ++calls_;
  return result;
}

ConsolidationResult TimingConsolidator::consolidate_incremental(
    const Topology& topo, const FlowSet& flows,
    const ConsolidationConfig& config, const WarmStartHint* warm) const {
  const auto start = Clock::now();
  ConsolidationResult result =
      inner_->consolidate_incremental(topo, flows, config, warm);
  ns_ += elapsed_ns(start);
  ++calls_;
  return result;
}

namespace {

std::vector<Span> read_spans() {
  std::ostringstream json;
  obs::tracer().write_json(json);
  std::istringstream in(json.str());
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    Span span;
    if (!text_field(line, "{\"name\": \"", &span.name) ||
        !field(line, "\"ts\": ", &span.ts_us) ||
        !field(line, "\"dur\": ", &span.dur_us)) {
      continue;
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace

double TraceCapture::counter(const char* name) const {
  const auto it = counters.counters.find(name);
  return it == counters.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
}

void begin_trace() {
  obs::metrics().reset();
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
}

TraceCapture end_trace(const TimingConsolidator* timing) {
  obs::tracer().set_enabled(false);
  TraceCapture capture;
  capture.spans = read_spans();
  capture.counters = obs::metrics().snapshot();
  if (timing != nullptr) {
    capture.consolidate_calls = timing->calls();
    capture.consolidate_ms = timing->seconds() * 1000.0;
  } else {
    capture.consolidate_calls = static_cast<long long>(
        span_durations_ms(capture.spans, "consolidate_greedy").size());
    capture.consolidate_ms =
        span_total_ms(capture.spans, "consolidate_greedy");
  }
  return capture;
}

double span_total_ms(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.dur_us;
  }
  return total / 1000.0;
}

std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.dur_us / 1000.0);
  }
  return out;
}

namespace {

using Intervals = std::vector<std::pair<double, double>>;

/// Sorted, disjoint union of the intervals of spans named in `names`.
Intervals merged(const std::vector<Span>& spans,
                 const std::vector<std::string>& names) {
  Intervals in;
  for (const Span& s : spans) {
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      in.emplace_back(s.ts_us, s.ts_us + s.dur_us);
    }
  }
  std::sort(in.begin(), in.end());
  Intervals out;
  for (const auto& iv : in) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double length(const Intervals& intervals) {
  double total = 0.0;
  for (const auto& [a, b] : intervals) total += b - a;
  return total;
}

}  // namespace

double span_union_ms(const std::vector<Span>& spans,
                     const std::vector<std::string>& names) {
  return length(merged(spans, names)) / 1000.0;
}

double span_self_ms(const std::vector<Span>& spans,
                    const std::vector<std::string>& parents,
                    const std::vector<std::string>& children) {
  const Intervals p = merged(spans, parents);
  const Intervals c = merged(spans, children);
  double overlap = 0.0;
  std::size_t i = 0, j = 0;
  while (i < p.size() && j < c.size()) {
    const double lo = std::max(p[i].first, c[j].first);
    const double hi = std::min(p[i].second, c[j].second);
    if (hi > lo) overlap += hi - lo;
    if (p[i].second < c[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return (length(p) - overlap) / 1000.0;
}

double set_planner_metrics(const TraceCapture& trace,
                           const std::vector<std::string>& planner,
                           double traced_wall_s, Outcome* out) {
  const std::vector<Span>& spans = trace.spans;
  auto counter = [&](const char* name) { return trace.counter(name); };
  const double planner_ms = span_union_ms(spans, planner);
  out->set("core.plan_self_ms",
           span_self_ms(spans, planner,
                        {"consolidate_hierarchical", "consolidate_greedy",
                         "consolidate_greedy_warm", "slack_estimate",
                         "server_power_predict"}));
  out->set("core.k_candidates", counter("planner.k_candidates"));
  out->set("core.k_feasible_ratio",
           counter("planner.k_candidates") > 0
               ? counter("planner.k_feasible") / counter("planner.k_candidates")
               : 0.0);
  out->set("core.slack_ms", span_total_ms(spans, "slack_estimate"));
  out->set("core.slack_samples", counter("slack.samples"));
  out->set("core.predict_ms", span_total_ms(spans, "server_power_predict"));
  out->set("core.planner_share_pct",
           100.0 * planner_ms / 1000.0 / traced_wall_s);
  out->set("consolidate.calls", static_cast<double>(trace.consolidate_calls));
  out->set("consolidate.ms", trace.consolidate_ms);
  out->set("consolidate.flows_placed", counter("consolidate.flows_placed"));
  out->set("consolidate.overflows", counter("consolidate.overflows"));
  out->set("consolidate.pod_solves",
           counter("consolidate.hierarchical_pod_solves"));
  return planner_ms;
}

ArrivalReplay replay_arrivals(const ArrivalStreamConfig& config) {
  ArrivalReplay out;
  const auto start = Clock::now();
  ArrivalGenerator gen(config);
  for (SimTime t = gen.next(); t < config.horizon; t = gen.next()) {
    ++out.arrivals;
  }
  const double ns = static_cast<double>(elapsed_ns(start));
  out.ns_per_next = ns / static_cast<double>(std::max(1LL, out.arrivals));
  const double candidates = gen.max_rate() * config.horizon;
  out.accept_ratio =
      candidates > 0.0 ? static_cast<double>(out.arrivals) / candidates : 0.0;
  return out;
}

namespace {

/// Host ns one steady_clock read pair adds to a timed call (median of many).
double clock_pair_ns() {
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i) {
    const auto start = Clock::now();
    samples.push_back(static_cast<double>(elapsed_ns(start)));
  }
  return median(samples);
}

ServerReplay replay_server_once(const ServiceModel& service,
                                const ServerPowerModel& power,
                                const ServerReplayConfig& config) {
  ServerReplay out;
  TimingPolicy::Samples samples;
  EventQueue events;
  const SimServer::PolicyFactory factory =
      [&](const ServiceModel* model) -> std::unique_ptr<DvfsPolicy> {
    return std::make_unique<TimingPolicy>(
        make_policy(config.policy, model, config.target_vp), &samples);
  };
  SimServer server(&events, &service, &power, factory,
                   [&](const ServerCompletion&) { ++out.completed; });

  Rng rng(config.seed);
  std::size_t next = 0;
  std::size_t in_transit = 0;
  std::function<void()> arrive = [&] {
    const std::size_t i = next++;
    if (next < config.arrivals.size()) {
      events.schedule(config.arrivals[next], arrive);
    }
    if (config.inflight_cap > 0 &&
        server.total_queued() + in_transit >= config.inflight_cap) {
      return;
    }
    const SimTime net =
        config.latency->sample_latency(*config.request_path, rng);
    ServerRequest request;
    request.meta.id = static_cast<RequestId>(i);
    request.net_request_latency = net;
    request.work = std::max(1.0, service.work().sample(rng));
    ++in_transit;
    ++out.submitted;
    events.schedule_in(net, [&, request]() mutable {
      --in_transit;
      const SimTime now = events.now();
      request.meta.arrival = now;
      request.meta.deadline_server = now + config.server_budget;
      request.meta.deadline_with_slack =
          request.meta.deadline_server +
          std::max(0.0, config.request_budget - request.net_request_latency);
      server.submit(request);
    });
  };
  if (!config.arrivals.empty()) events.schedule(config.arrivals[0], arrive);
  while (events.step()) {
    out.heap_peak = std::max(out.heap_peak, events.pending());
  }

  const double overhead = clock_pair_ns();
  for (double& ns : samples.ns) ns = std::max(0.0, ns - overhead);
  out.selections = static_cast<long long>(samples.ns.size());
  out.stale_events = out.selections - out.completed;
  out.select_ns_p50 = quantile(samples.ns, 0.50);
  out.select_ns_p99 = quantile(samples.ns, 0.99);
  out.select_ns_mean = perfbench::mean(samples.ns);
  out.queue_depth_mean =
      out.selections > 0
          ? samples.depth_sum / static_cast<double>(out.selections)
          : 0.0;
  return out;
}

}  // namespace

ServerReplay replay_server(const ServiceModel& service,
                           const ServerPowerModel& power,
                           const ServerReplayConfig& config) {
  // The first pass fills the service model's lazily built convolution
  // tables, which the simulated cluster shares across all its servers and
  // decisions; only the second, warm pass is reported.
  replay_server_once(service, power, config);
  return replay_server_once(service, power, config);
}

double event_queue_ns(std::size_t depth, long long ops) {
  EventQueue queue;
  Rng rng(99);
  // A 32-byte capture, like the simulator's request-carrying closures, so
  // std::function allocates as it does in the real event loop.
  struct Payload {
    double words[4] = {0.0, 0.0, 0.0, 0.0};
  };
  const Payload payload;
  const auto callback = [payload] { (void)payload; };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    queue.schedule(rng.exponential(1000.0), callback);
  }
  std::vector<SimTime> delays(static_cast<std::size_t>(std::max(1LL, ops)));
  for (SimTime& d : delays) d = rng.exponential(1000.0);
  const auto start = Clock::now();
  for (long long i = 0; i < ops; ++i) {
    queue.schedule(queue.now() + delays[static_cast<std::size_t>(i)],
                   callback);
    queue.step();
  }
  return static_cast<double>(elapsed_ns(start)) /
         static_cast<double>(std::max(1LL, ops));
}

double net_sample_ns(const PathLatencyEstimator& latency,
                     const std::vector<Path>& paths, long long draws) {
  if (paths.empty() || draws <= 0) return 0.0;
  Rng rng(7);
  double sink = 0.0;
  const auto start = Clock::now();
  for (long long i = 0; i < draws; ++i) {
    sink += latency.sample_latency(
        paths[static_cast<std::size_t>(i) % paths.size()], rng);
  }
  const double ns = static_cast<double>(elapsed_ns(start));
  if (sink < 0.0) std::abort();  // keeps the draws observable
  return ns / static_cast<double>(draws);
}

std::vector<SimTime> poisson_times(double rate_per_us, SimTime horizon,
                                   std::uint64_t seed) {
  std::vector<SimTime> times;
  if (rate_per_us <= 0.0) return times;
  Rng rng(seed);
  for (SimTime t = rng.exponential(1.0 / rate_per_us); t < horizon;
       t += rng.exponential(1.0 / rate_per_us)) {
    times.push_back(t);
  }
  return times;
}

LatencyFixture make_latency_fixture(const Scenario& scenario,
                                    const JointOptimizerConfig& joint,
                                    const FlowSet& background,
                                    double utilization, double lambda_per_us) {
  const JointOptimizer optimizer = scenario.optimizer(joint);
  PlanRequest request;
  request.background = &background;
  request.utilization = utilization;
  const JointPlan plan = optimizer.optimize(request);

  LatencyFixture fixture;
  const Graph& graph = scenario.topology().graph();
  fixture.load = std::make_unique<LinkUtilization>(scenario_offered_load(
      graph, plan.placement, plan.flows, plan.request_flow, plan.reply_flow,
      query_stream_rate(lambda_per_us, 1000.0),
      query_stream_rate(lambda_per_us, 2000.0)));
  fixture.latency = std::make_unique<PathLatencyEstimator>(
      fixture.load.get(), LinkLatencyModel{});
  const auto& paths = plan.placement.flow_paths;
  auto path_of = [&](FlowId flow) -> const Path* {
    if (flow < 0 || static_cast<std::size_t>(flow) >= paths.size()) {
      return nullptr;
    }
    const Path& p = paths[static_cast<std::size_t>(flow)];
    return p.size() >= 2 ? &p : nullptr;
  };
  std::vector<Path> replies;
  for (std::size_t h = 0; h < plan.request_flow.size(); ++h) {
    const Path* req = path_of(plan.request_flow[h]);
    const Path* rep =
        h < plan.reply_flow.size() ? path_of(plan.reply_flow[h]) : nullptr;
    if (req != nullptr && rep != nullptr) {
      fixture.paths.push_back(*req);
      replies.push_back(*rep);
    }
  }
  if (fixture.paths.empty()) {
    throw std::runtime_error("latency fixture: plan routed no query flow");
  }
  fixture.paths.insert(fixture.paths.end(), replies.begin(), replies.end());
  fixture.latency_constraint = joint.latency_constraint;
  fixture.server_budget = plan.feasible ? plan.effective_server_budget
                                        : joint.server_budget;
  return fixture;
}

JsonlLog read_jsonl_log(const std::string& path) {
  JsonlLog log;
  std::ifstream in(path);
  std::string line;
  double budget_sum = 0.0;
  long long budget_count = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++log.records;
    log.bytes += static_cast<long long>(line.size()) + 1;
    if (line.rfind("{\"source\": \"attribution\"", 0) == 0) {
      ++log.ledger_lines;
      double total = 0.0, network = 0.0, server = 0.0;
      const bool parsed = field(line, "\"total_w\": ", &total) &&
                          field(line, "\"network_total_w\": ", &network) &&
                          field(line, "\"server_total_w\": ", &server);
      if (!parsed || total != network + server) ++log.ledger_violations;
    } else if (line.rfind("{\"source\": \"epoch_controller\"", 0) == 0) {
      double budget = 0.0;
      if (field(line, "\"server_budget_us\": ", &budget)) {
        budget_sum += budget;
        ++budget_count;
      }
    }
  }
  if (budget_count > 0) {
    log.mean_server_budget_us = budget_sum / static_cast<double>(budget_count);
  }
  return log;
}

}  // namespace perfbench
