#include "schedule/temporal_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "trace/diurnal.h"

namespace eprons {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
}

/// Flow evaluation order shared by both passes: earliest deadline first,
/// ties by release then id — deterministic for any input order.
std::vector<std::size_t> deadline_order(const TimedFlowSet& flows) {
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&flows](std::size_t a, std::size_t b) {
              const TimedFlow& fa = flows[a];
              const TimedFlow& fb = flows[b];
              if (fa.deadline_epoch != fb.deadline_epoch) {
                return fa.deadline_epoch < fb.deadline_epoch;
              }
              if (fa.release_epoch != fb.release_epoch) {
                return fa.release_epoch < fb.release_epoch;
              }
              return fa.id < fb.id;
            });
  return order;
}

}  // namespace

double TemporalSchedule::demand_mbps(int epoch) const {
  if (epoch < 0 || epoch >= epochs || epoch_seconds <= 0.0) return 0.0;
  return static_cast<double>(carried_mbit[static_cast<std::size_t>(epoch)]) /
         epoch_seconds;
}

void TemporalSchedule::append_epoch_flows(int epoch, FlowSet* out) const {
  if (epoch < 0 || epoch >= epochs) return;
  const FlowSet& scheduled = epoch_flows[static_cast<std::size_t>(epoch)];
  for (const Flow& f : scheduled.flows()) {
    out->add(f.src_host, f.dst_host, f.demand, f.cls);
  }
}

std::string TemporalSchedule::dump() const {
  std::string out = "epochs=" + std::to_string(epochs) +
                    " carried=" + std::to_string(carried_total_mbit) +
                    " missed=" + std::to_string(missed_total_mbit) +
                    " edf=" + std::to_string(used_edf_fallback ? 1 : 0) + "\n";
  for (std::size_t f = 0; f < per_flow.size(); ++f) {
    out += "f=" + std::to_string(f) + " miss=" + std::to_string(missed_mbit[f]);
    for (const Allocation& a : per_flow[f]) {
      out += " (" + std::to_string(a.epoch) + "," + std::to_string(a.mbit) +
             ")";
    }
    out += "\n";
  }
  return out;
}

std::uint64_t TemporalSchedule::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(epochs));
  for (std::size_t f = 0; f < per_flow.size(); ++f) {
    fnv_mix(h, static_cast<std::uint64_t>(f));
    for (const Allocation& a : per_flow[f]) {
      fnv_mix(h, static_cast<std::uint64_t>(a.epoch));
      fnv_mix(h, static_cast<std::uint64_t>(a.mbit));
    }
    fnv_mix(h, static_cast<std::uint64_t>(missed_mbit[f]));
  }
  return h;
}

TemporalScheduler::TemporalScheduler(TemporalSchedulerConfig config)
    : config_(std::move(config)) {
  if (config_.epochs <= 0) {
    throw std::invalid_argument("scheduler horizon must be >= 1 epoch");
  }
  if (config_.epoch_seconds <= 0.0) {
    throw std::invalid_argument("epoch length must be positive");
  }
  if (!config_.epoch_cost.empty() &&
      static_cast<int>(config_.epoch_cost.size()) != config_.epochs) {
    throw std::invalid_argument("epoch_cost size must match epochs");
  }
  if (config_.runtime.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.runtime.threads);
  }
}

double TemporalScheduler::epoch_cost(int epoch) const {
  if (config_.epoch_cost.empty()) return 0.0;
  return config_.epoch_cost[static_cast<std::size_t>(epoch)];
}

bool TemporalScheduler::greedy_pass(const TimedFlowSet& flows,
                                    TemporalSchedule* out) const {
  const int epochs = config_.epochs;
  // Epochs by ascending cost (ties by index): the trough-filling order.
  std::vector<int> cheap_first(static_cast<std::size_t>(epochs));
  std::iota(cheap_first.begin(), cheap_first.end(), 0);
  std::sort(cheap_first.begin(), cheap_first.end(), [this](int a, int b) {
    const double ca = epoch_cost(a);
    const double cb = epoch_cost(b);
    if (ca != cb) return ca < cb;
    return a < b;
  });

  std::vector<long long> cap_left(static_cast<std::size_t>(epochs),
                                  config_.epoch_cap_mbit);

  bool all_placed = true;
  for (const std::size_t f : deadline_order(flows)) {
    const TimedFlow& flow = flows[f];
    long long remaining = flow.volume_mbit;
    auto& allocs = out->per_flow[f];
    for (const int e : cheap_first) {
      if (remaining == 0) break;
      if (e < flow.release_epoch || e > flow.deadline_epoch) continue;
      long long space = cap_left[static_cast<std::size_t>(e)];
      if (config_.flow_rate_cap_mbit > 0) {
        space = std::min(space, config_.flow_rate_cap_mbit);
      }
      const long long a = std::min(remaining, space);
      if (a <= 0) continue;
      allocs.push_back(TemporalSchedule::Allocation{e, a});
      cap_left[static_cast<std::size_t>(e)] -= a;
      remaining -= a;
    }
    std::sort(allocs.begin(), allocs.end(),
              [](const TemporalSchedule::Allocation& a,
                 const TemporalSchedule::Allocation& b) {
                return a.epoch < b.epoch;
              });
    out->missed_mbit[f] = remaining;
    if (remaining > 0) all_placed = false;
  }
  return all_placed;
}

void TemporalScheduler::edf_pass(const TimedFlowSet& flows,
                                 TemporalSchedule* out) const {
  const int epochs = config_.epochs;
  for (auto& allocs : out->per_flow) allocs.clear();
  std::vector<long long> remaining(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    remaining[f] = flows[f].volume_mbit;
  }

  const std::vector<std::size_t> by_deadline = deadline_order(flows);
  for (int e = 0; e < epochs; ++e) {
    long long cap = config_.epoch_cap_mbit;
    for (const std::size_t f : by_deadline) {
      if (cap == 0) break;
      const TimedFlow& flow = flows[f];
      if (e < flow.release_epoch || e > flow.deadline_epoch) continue;
      long long a = std::min(remaining[f], cap);
      if (config_.flow_rate_cap_mbit > 0) {
        a = std::min(a, config_.flow_rate_cap_mbit);
      }
      if (a <= 0) continue;
      out->per_flow[f].push_back(TemporalSchedule::Allocation{e, a});
      cap -= a;
      remaining[f] -= a;
    }
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    out->missed_mbit[f] = remaining[f];
  }
}

void TemporalScheduler::finalize(const TimedFlowSet& flows,
                                 TemporalSchedule* out) const {
  const int epochs = config_.epochs;
  const std::size_t n = flows.size();
  out->carried_mbit.assign(static_cast<std::size_t>(epochs), 0);
  out->backlog_mbit.assign(static_cast<std::size_t>(epochs), 0);
  out->expired_mbit.assign(static_cast<std::size_t>(epochs), 0);
  out->flows_active.assign(static_cast<std::size_t>(epochs), 0);
  out->flows_completed.assign(static_cast<std::size_t>(epochs), 0);
  out->start_epoch.assign(n, -1);
  out->finish_epoch.assign(n, -1);
  out->deferred_mbit_epochs = 0;
  out->objective_cost = 0.0;

  // Flow-id-major over epoch-ascending allocations: the fixed summation
  // order every total below is defined against.
  for (std::size_t f = 0; f < n; ++f) {
    const TimedFlow& flow = flows[f];
    for (const TemporalSchedule::Allocation& a : out->per_flow[f]) {
      const auto e = static_cast<std::size_t>(a.epoch);
      out->carried_mbit[e] += a.mbit;
      ++out->flows_active[e];
      if (out->start_epoch[f] < 0) out->start_epoch[f] = a.epoch;
      out->finish_epoch[f] = a.epoch;
      out->deferred_mbit_epochs +=
          a.mbit * static_cast<long long>(a.epoch - flow.release_epoch);
      out->objective_cost += epoch_cost(a.epoch) * static_cast<double>(a.mbit);
    }
    if (out->missed_mbit[f] == 0 && out->finish_epoch[f] >= 0) {
      ++out->flows_completed[static_cast<std::size_t>(out->finish_epoch[f])];
    }
    if (out->missed_mbit[f] > 0) {
      ++out->deadline_misses;
      out->expired_mbit[static_cast<std::size_t>(flow.deadline_epoch)] +=
          out->missed_mbit[f];
    }
    // Backlog: released and unfinished strictly before the deadline epoch's
    // end (the deadline boundary either completes or expires the flow).
    long long pending = flow.volume_mbit;
    std::size_t next_alloc = 0;
    for (int e = flow.release_epoch; e < flow.deadline_epoch; ++e) {
      while (next_alloc < out->per_flow[f].size() &&
             out->per_flow[f][next_alloc].epoch <= e) {
        pending -= out->per_flow[f][next_alloc].mbit;
        ++next_alloc;
      }
      out->backlog_mbit[static_cast<std::size_t>(e)] += pending;
    }
  }

  out->carried_total_mbit = 0;
  for (int e = 0; e < epochs; ++e) {
    out->carried_total_mbit += out->carried_mbit[static_cast<std::size_t>(e)];
  }
  out->missed_total_mbit = 0;
  for (std::size_t f = 0; f < n; ++f) {
    out->missed_total_mbit += out->missed_mbit[f];
  }
  out->total_volume_mbit = out->carried_total_mbit + out->missed_total_mbit;

  // Demand matrices, one FlowSet per epoch. Each iteration writes only its
  // own slot, so the parallel and serial paths are byte-identical.
  out->epoch_flows.assign(static_cast<std::size_t>(epochs), FlowSet{});
  parallel_for(pool_.get(), static_cast<std::size_t>(epochs),
               [&](std::size_t e) {
                 FlowSet& fs = out->epoch_flows[e];
                 for (std::size_t f = 0; f < n; ++f) {
                   for (const TemporalSchedule::Allocation& a :
                        out->per_flow[f]) {
                     if (a.epoch == static_cast<int>(e) && a.mbit > 0) {
                       fs.add(flows[f].src_host, flows[f].dst_host,
                              static_cast<double>(a.mbit) /
                                  config_.epoch_seconds,
                              FlowClass::LatencyTolerant);
                     }
                   }
                 }
               });
}

TemporalSchedule TemporalScheduler::schedule(const TimedFlowSet& flows) const {
  for (const TimedFlow& f : flows.flows()) {
    if (f.deadline_epoch >= config_.epochs) {
      throw std::invalid_argument("timed flow deadline beyond the horizon");
    }
  }
  TemporalSchedule out;
  out.epochs = config_.epochs;
  out.epoch_seconds = config_.epoch_seconds;
  out.per_flow.assign(flows.size(), {});
  out.missed_mbit.assign(flows.size(), 0);

  if (!greedy_pass(flows, &out)) {
    // Cost-greedy stranded volume; fluid EDF is feasibility-optimal, so
    // any miss it still reports is a genuine hard-deadline miss.
    edf_pass(flows, &out);
    out.used_edf_fallback = true;
  }
  finalize(flows, &out);
  return out;
}

std::vector<double> TemporalScheduler::diurnal_epoch_cost(
    const DiurnalTraceConfig& diurnal, int epochs, double epoch_seconds,
    double start_offset_seconds) {
  std::vector<double> cost(static_cast<std::size_t>(epochs), 0.0);
  const double day_seconds = diurnal.minutes * 60.0;
  for (int e = 0; e < epochs; ++e) {
    // Mean shape over the epoch's minutes (at least one sample).
    const int samples = std::max(1, static_cast<int>(epoch_seconds / 60.0));
    double sum = 0.0;
    for (int s = 0; s < samples; ++s) {
      double at = start_offset_seconds + e * epoch_seconds + (s + 0.5) * 60.0;
      at = std::fmod(at, day_seconds);
      if (at < 0.0) at += day_seconds;
      const int minute =
          std::min(diurnal.minutes - 1, static_cast<int>(at / 60.0));
      sum += diurnal_shape(diurnal, minute);
    }
    // Marginal-energy price = 1 - shape: at the query peak the subnet is
    // already powered for foreground traffic, so elastic volume rides
    // nearly free; at night every carried Mbit keeps switches awake that
    // consolidation would otherwise turn off.
    cost[static_cast<std::size_t>(e)] = 1.0 - sum / samples;
  }
  return cost;
}

}  // namespace eprons
