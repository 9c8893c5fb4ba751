#include "core/scenario.h"

#include <stdexcept>
#include <utility>

#include "obs/telemetry.h"

namespace eprons {

FlowGenConfig topology_flow_gen(const Topology& topo, int aggregator_host) {
  FlowGenConfig config;
  config.num_hosts = topo.num_hosts();
  config.link_capacity = topo.link_capacity();
  config.hosts_per_edge = topo.hosts_per_access_switch();
  config.exclude_host = aggregator_host;
  return config;
}

TemporalSchedulerConfig topology_scheduler_config(
    const Topology& topo, const RuntimeConfig& runtime,
    TemporalSchedulerConfig config) {
  if (config.runtime.threads <= 1) config.runtime = runtime;
  const double uplink_epoch_mbit = topo.link_capacity() * config.epoch_seconds;
  if (config.epoch_cap_mbit <= 0) {
    config.epoch_cap_mbit = static_cast<long long>(uplink_epoch_mbit * 0.5);
  }
  if (config.flow_rate_cap_mbit <= 0) {
    config.flow_rate_cap_mbit = static_cast<long long>(uplink_epoch_mbit * 0.4);
  }
  return config;
}

FlowGenConfig Scenario::flow_gen(int aggregator_host) const {
  return topology_flow_gen(*topo_, aggregator_host);
}

TimedFlowGenConfig Scenario::timed_flow_gen(int aggregator_host) const {
  TimedFlowGenConfig config;
  config.endpoints = flow_gen(aggregator_host);
  // Default volumes: mean 10% of one uplink-hour (Mbit), so even the
  // uniform-spread baseline fits comfortably and the interesting question
  // is *when* the volume moves, not whether it fits at all.
  config.mean_volume_mbit = static_cast<long long>(
      topo_->link_capacity() * 3600.0 * 0.10);
  return config;
}

TemporalScheduler Scenario::temporal_scheduler(
    TemporalSchedulerConfig config) const {
  return TemporalScheduler(
      topology_scheduler_config(*topo_, runtime_, std::move(config)));
}

JointOptimizer Scenario::optimizer(JointOptimizerConfig config,
                                   const Consolidator* consolidator) const {
  if (config.runtime.threads <= 1) config.runtime = runtime_;
  return JointOptimizer(topo_.get(), service_.get(), power_.get(),
                        std::move(config), consolidator);
}

EpochController Scenario::epoch_controller(EpochControllerConfig config) const {
  if (config.runtime.threads <= 1) config.runtime = runtime_;
  return EpochController(topo_.get(), service_.get(), power_.get(),
                         std::move(config));
}

TraceReplay Scenario::trace_replay(TraceReplayConfig config) const {
  if (!fat_tree_) {
    throw std::logic_error(
        "Scenario::trace_replay requires a fat-tree topology");
  }
  if (config.joint.runtime.threads <= 1) config.joint.runtime = runtime_;
  return TraceReplay(fat_tree_, service_.get(), power_.get(),
                     std::move(config));
}

ScenarioResult Scenario::run(const FlowSet& background,
                             const ScenarioConfig& config,
                             const std::vector<bool>* subnet) const {
  return run_search_scenario(*topo_, *service_, *power_, background, config,
                             subnet);
}

Scenario ScenarioBuilder::build() const {
  // Telemetry sinks ride on RuntimeConfig, so every bench/example that
  // passes runtime_from_cli(cli) through the builder gets --metrics-out /
  // --trace-out / --epoch-log / --log-level support with no further wiring.
  obs::configure_telemetry(runtime_);
  Scenario scenario;
  if (leaf_spine_) {
    scenario.topo_ =
        std::make_unique<LeafSpine>(leaves_, spines_, hosts_per_leaf_);
  } else {
    auto fat_tree = std::make_unique<FatTree>(fat_tree_k_);
    scenario.fat_tree_ = fat_tree.get();
    scenario.topo_ = std::move(fat_tree);
  }
  // Seeded exactly like the legacy bench fixture so a given seed keeps
  // producing the same service model as before the builder existed.
  Rng rng(seed_);
  scenario.service_ = std::make_unique<const ServiceModel>(
      make_search_service_model(workload_, rng));
  scenario.power_ = std::make_unique<const ServerPowerModel>(power_);
  scenario.runtime_ = runtime_;
  scenario.seed_ = seed_;
  return scenario;
}

}  // namespace eprons
