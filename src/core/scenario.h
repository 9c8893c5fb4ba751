// One-stop scenario construction for benches, examples, and tests.
//
// Every experiment in this repo needs the same three long-lived models —
// a topology, a service-time model, a server power model — plus the glue
// pointers between them. ScenarioBuilder derives all of them from a single
// seed (deterministically), and the resulting Scenario hands out fully
// wired planners/simulators, replacing the raw three-pointer
// `JointOptimizer(&topo, &service, &power, ...)` wiring that used to be
// copy-pasted across every bench binary and example.
//
//   Scenario scn = ScenarioBuilder().seed(1).fat_tree(4).build();
//   const JointOptimizer opt = scn.optimizer();
//   const ScenarioResult r = scn.run(background, scenario_config, &subnet);
#pragma once

#include <cstdint>
#include <memory>

#include "core/epoch_controller.h"
#include "core/joint_optimizer.h"
#include "core/trace_replay.h"
#include "dvfs/synthetic_workload.h"
#include "flow/timed_flow.h"
#include "schedule/temporal_scheduler.h"
#include "sim/search_cluster.h"
#include "topo/fattree.h"
#include "topo/leaf_spine.h"
#include "util/thread_pool.h"

namespace eprons {

class ScenarioBuilder;

/// Background-flow generator config matched to `topo` — the elephant
/// endpoint layout; the aggregator host's edge group is excluded so
/// elephants never contend with the query fan-in on its edge downlink.
FlowGenConfig topology_flow_gen(const Topology& topo, int aggregator_host);

/// `config` with its unset values defaulted from `topo` and `runtime`:
/// `runtime` unless the config already asks for parallelism, an epoch cap
/// of half an uplink-epoch of volume (packed epochs stay placeable under
/// the consolidator's safety margin) and a per-flow cap of 40% of one.
TemporalSchedulerConfig topology_scheduler_config(
    const Topology& topo, const RuntimeConfig& runtime,
    TemporalSchedulerConfig config);

/// An immutable, self-owning experiment substrate. Factory methods return
/// components wired to the scenario's models; the Scenario must outlive
/// everything it hands out.
class Scenario {
 public:
  Scenario(Scenario&&) = default;
  Scenario& operator=(Scenario&&) = default;

  const Topology& topology() const { return *topo_; }
  /// Non-null only when the topology is a fat-tree (AggregationPolicies
  /// and TraceReplay are fat-tree specific).
  const FatTree* fat_tree() const { return fat_tree_; }
  const ServiceModel& service_model() const { return *service_; }
  const ServerPowerModel& power_model() const { return *power_; }
  const RuntimeConfig& runtime() const { return runtime_; }
  std::uint64_t seed() const { return seed_; }

  /// topology_flow_gen for this scenario's topology.
  FlowGenConfig flow_gen(int aggregator_host = 0) const;

  /// Deadline-bound background (timed) flow generator config matched to
  /// this topology; endpoints follow the same elephant layout as
  /// flow_gen(). Defaults: 24 one-hour epochs, volumes that keep a single
  /// flow's uniform-spread rate well under one uplink.
  TimedFlowGenConfig timed_flow_gen(int aggregator_host = 0) const;

  /// A temporal scheduler (schedule/temporal_scheduler.h) for this
  /// scenario, its config defaulted by topology_scheduler_config.
  TemporalScheduler temporal_scheduler(TemporalSchedulerConfig config = {})
      const;

  /// A joint optimizer on this scenario's models. The scenario's runtime
  /// (thread count) is applied unless the config already asks for
  /// parallelism. Pass a Consolidator to override greedy placement.
  JointOptimizer optimizer(JointOptimizerConfig config = {},
                           const Consolidator* consolidator = nullptr) const;

  /// The measure->predict->optimize->reconfigure loop on this scenario.
  EpochController epoch_controller(EpochControllerConfig config = {}) const;

  /// Diurnal trace replay (fat-tree scenarios only).
  TraceReplay trace_replay(TraceReplayConfig config = {}) const;

  /// Full DES validation run (see run_search_scenario).
  ScenarioResult run(const FlowSet& background, const ScenarioConfig& config,
                     const std::vector<bool>* subnet = nullptr) const;

 private:
  friend class ScenarioBuilder;
  Scenario() = default;

  std::unique_ptr<const Topology> topo_;
  const FatTree* fat_tree_ = nullptr;
  std::unique_ptr<const ServiceModel> service_;
  std::unique_ptr<const ServerPowerModel> power_;
  RuntimeConfig runtime_;
  std::uint64_t seed_ = 1;
};

/// Builds a Scenario from one seed. All setters are optional; the default
/// is the paper's evaluation substrate (4-ary fat-tree, synthetic search
/// workload, 12-core Xeon power calibration, serial runtime).
class ScenarioBuilder {
 public:
  ScenarioBuilder& seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  ScenarioBuilder& fat_tree(int k) {
    fat_tree_k_ = k;
    leaf_spine_ = false;
    return *this;
  }
  ScenarioBuilder& leaf_spine(int leaves, int spines, int hosts_per_leaf) {
    leaf_spine_ = true;
    leaves_ = leaves;
    spines_ = spines;
    hosts_per_leaf_ = hosts_per_leaf;
    return *this;
  }
  ScenarioBuilder& workload(SyntheticWorkloadConfig config) {
    workload_ = config;
    return *this;
  }
  ScenarioBuilder& power_model(ServerPowerModel model) {
    power_ = model;
    return *this;
  }
  ScenarioBuilder& runtime(RuntimeConfig runtime) {
    runtime_ = runtime;
    return *this;
  }
  ScenarioBuilder& threads(int threads) {
    runtime_.threads = threads;
    return *this;
  }

  Scenario build() const;

 private:
  std::uint64_t seed_ = 1;
  int fat_tree_k_ = 4;
  bool leaf_spine_ = false;
  int leaves_ = 4;
  int spines_ = 4;
  int hosts_per_leaf_ = 4;
  SyntheticWorkloadConfig workload_;
  ServerPowerModel power_;
  RuntimeConfig runtime_;
};

}  // namespace eprons
