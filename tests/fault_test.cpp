// Tests for the fault-injection stack: seed-determinism of the generated
// schedule, FailureOverlay semantics (counted failures, implied incident
// links, exact repair), the epoch controller's emergency re-plan, and the
// DES fault replay. Everything here must be bit-identical run-to-run and
// across --threads values — that is the module's core contract.
#include <gtest/gtest.h>

#include "core/epoch_controller.h"
#include "dvfs/synthetic_workload.h"
#include "fault/fault_injector.h"
#include "sim/search_cluster.h"
#include "topo/aggregation.h"
#include "topo/fattree.h"

namespace eprons {
namespace {

ServiceModel fault_model() {
  Rng rng(31);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

bool same_event(const FaultEvent& a, const FaultEvent& b) {
  return a.time == b.time && a.repair == b.repair && a.type == b.type &&
         a.node == b.node && a.link == b.link;
}

bool same_transition(const FaultTransition& a, const FaultTransition& b) {
  return a.time == b.time && a.up == b.up && a.type == b.type &&
         a.node == b.node && a.link == b.link;
}

NodeId first_switch_of(const Graph& graph, NodeType type) {
  for (const Node& n : graph.nodes()) {
    if (n.type == type) return n.id;
  }
  return kInvalidNode;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FatTree topo(4);
  FaultInjectorConfig config;
  config.mtbf = sec(120.0);
  config.horizon = sec(3600.0);
  config.seed = 42;
  const FaultSchedule a = generate_fault_schedule(topo.graph(), config);
  const FaultSchedule b = generate_fault_schedule(topo.graph(), config);
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_TRUE(same_event(a.events[i], b.events[i])) << "event " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_TRUE(same_transition(a.timeline[i], b.timeline[i])) << "tr " << i;
  }
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  const FatTree topo(4);
  FaultInjectorConfig config;
  config.mtbf = sec(120.0);
  config.horizon = sec(3600.0);
  config.seed = 1;
  const FaultSchedule a = generate_fault_schedule(topo.graph(), config);
  config.seed = 2;
  const FaultSchedule b = generate_fault_schedule(topo.graph(), config);
  ASSERT_FALSE(a.events.empty());
  ASSERT_FALSE(b.events.empty());
  bool differs = a.events.size() != b.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = !same_event(a.events[i], b.events[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ScheduleWellFormed) {
  const FatTree topo(4);
  const Graph& g = topo.graph();
  FaultInjectorConfig config;
  config.mtbf = sec(60.0);
  config.horizon = sec(3600.0);
  const FaultSchedule s = generate_fault_schedule(g, config);
  ASSERT_FALSE(s.events.empty());
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, config.horizon);
    EXPECT_GT(e.repair, e.time);
    if (e.type == FaultType::SwitchCrash) {
      ASSERT_NE(e.node, kInvalidNode);
      EXPECT_TRUE(g.is_switch(e.node));
      // spare_edge_switches (default): hosts are single-homed, so the
      // edge tier is never a victim.
      EXPECT_NE(g.node(e.node).type, NodeType::EdgeSwitch);
    } else {
      ASSERT_NE(e.link, kInvalidLink);
      EXPECT_LT(static_cast<std::size_t>(e.link), g.num_links());
    }
  }
  // Timeline is sorted and balanced: every failure has a matching repair.
  int open = 0;
  for (std::size_t i = 0; i < s.timeline.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(s.timeline[i].time, s.timeline[i - 1].time);
    }
    open += s.timeline[i].up ? -1 : 1;
  }
  EXPECT_EQ(open, 0);
}

TEST(FailureOverlay, FailedSwitchTakesIncidentLinksDown) {
  const FatTree topo(4);
  const Graph& g = topo.graph();
  const NodeId agg = first_switch_of(g, NodeType::AggSwitch);
  ASSERT_NE(agg, kInvalidNode);

  FailureOverlay overlay(&g);
  overlay.fail_node(agg);
  EXPECT_TRUE(overlay.node_failed(agg));
  for (const LinkId l : g.links_of(agg)) {
    EXPECT_TRUE(overlay.link_down(l));
    // The links themselves did not fail — the node took them down.
    EXPECT_FALSE(overlay.link_failed(l));
  }
  EXPECT_EQ(overlay.down_links(), static_cast<int>(g.links_of(agg).size()));

  overlay.repair_node(agg);
  EXPECT_FALSE(overlay.any_failed());
  for (const LinkId l : g.links_of(agg)) EXPECT_FALSE(overlay.link_down(l));
}

TEST(FailureOverlay, OverlappingFailuresCompose) {
  const FatTree topo(4);
  const Graph& g = topo.graph();
  const LinkId link = 0;
  FailureOverlay overlay(&g);
  overlay.fail_link(link);
  overlay.fail_link(link);  // a second, overlapping outage
  EXPECT_TRUE(overlay.link_failed(link));
  overlay.repair_link(link);
  // One repair clears one outage; the element stays down.
  EXPECT_TRUE(overlay.link_failed(link));
  overlay.repair_link(link);
  EXPECT_FALSE(overlay.link_failed(link));
  EXPECT_FALSE(overlay.any_failed());
}

TEST(FailureOverlay, BlocksPathsCrossingFailures) {
  const FatTree topo(4);
  const Graph& g = topo.graph();
  const auto paths = topo.all_paths(0, 15);
  ASSERT_FALSE(paths.empty());
  const Path& path = paths.front();
  ASSERT_GE(path.size(), 3u);

  FailureOverlay overlay(&g);
  EXPECT_FALSE(overlay.blocks(path));
  overlay.fail_node(path[1]);  // first switch on the path
  EXPECT_TRUE(overlay.blocks(path));
  overlay.repair_node(path[1]);
  EXPECT_FALSE(overlay.blocks(path));

  const LinkId hop = g.find_link(path[0], path[1]);
  ASSERT_NE(hop, kInvalidLink);
  overlay.fail_link(hop);
  EXPECT_TRUE(overlay.blocks(path));
}

TEST(FaultCursor, FullReplayRestoresPristineState) {
  // Repair restores exactly the prior capacity: after every transition in
  // the schedule has been applied — including overlapping outages of the
  // same element — no node or link is left failed.
  const FatTree topo(4);
  FaultInjectorConfig config;
  config.mtbf = sec(30.0);  // dense: plenty of overlap
  config.mttr = sec(300.0);
  config.horizon = sec(3600.0);
  const FaultSchedule s = generate_fault_schedule(topo.graph(), config);
  ASSERT_GT(s.events.size(), 10u);

  FaultCursor cursor(&topo.graph(), &s.timeline);
  int fired = 0;
  bool saw_failure = false;
  while (!cursor.exhausted()) {
    fired += cursor.advance_to(cursor.next_time());
    saw_failure = saw_failure || cursor.overlay().any_failed();
  }
  EXPECT_EQ(fired, static_cast<int>(s.timeline.size()));
  EXPECT_TRUE(saw_failure);
  EXPECT_FALSE(cursor.overlay().any_failed());
  const std::vector<bool> down = cursor.overlay().down_link_mask();
  for (std::size_t i = 0; i < down.size(); ++i) {
    EXPECT_FALSE(down[i]) << "link " << i << " left down after full replay";
  }
}

class FaultRecovery : public ::testing::Test {
 protected:
  FaultRecovery() : model_(fault_model()) {}

  EpochControllerConfig controller_config(int threads = 1) const {
    EpochControllerConfig config;
    config.joint.slack.samples_per_pair = 60;
    config.samples_per_epoch = 40;
    config.runtime.threads = threads;
    return config;
  }

  FlowSet background(double util = 0.2) const {
    FlowGenConfig gen;
    gen.exclude_host = 0;
    Rng rng(5);
    return make_background_flows(gen, 6, util, 0.1, rng);
  }

  bool hosts_connected(const std::vector<bool>& switch_on,
                       const FailureOverlay* overlay) const {
    const Graph& g = topo_.graph();
    const std::vector<NodeId> hosts = g.hosts();
    const std::vector<NodeId> targets(hosts.begin() + 1, hosts.end());
    return g.connected(hosts[0], targets, switch_on, overlay);
  }

  const FatTree topo_{4};
  const ServiceModel model_;
  const ServerPowerModel power_;
};

TEST_F(FaultRecovery, ReplanKeepsSurvivingSubnetConnected) {
  EpochController controller(&topo_, &model_, &power_, controller_config());
  Rng rng(17);
  const FlowSet flows = background();
  ASSERT_TRUE(controller.run_epoch(flows, 0.3, rng).feasible);

  // Crash one aggregation and one core switch: survivable in a 4-ary
  // fat tree, but likely on the consolidated subnet.
  FailureOverlay overlay(&topo_.graph());
  overlay.fail_node(first_switch_of(topo_.graph(), NodeType::AggSwitch));
  overlay.fail_node(first_switch_of(topo_.graph(), NodeType::CoreSwitch));

  const RecoveryReport report = controller.on_failure(overlay);
  EXPECT_TRUE(report.connected);
  EXPECT_TRUE(controller.faults_active());
  EXPECT_GE(report.time_to_replan, sec(2.0));
  // The active mask must route around the failures.
  EXPECT_TRUE(hosts_connected(controller.current_mask(), &overlay));

  // The next epoch plans on the surviving subnet and stays connected too.
  const EpochReport epoch = controller.run_epoch(flows, 0.3, rng);
  EXPECT_TRUE(hosts_connected(controller.current_mask(), &overlay));
  EXPECT_GE(epoch.actual_switches, epoch.wanted_switches);

  controller.clear_faults();
  EXPECT_FALSE(controller.faults_active());
}

TEST_F(FaultRecovery, ReportsDisconnectedWhenNoSubnetExists) {
  EpochController controller(&topo_, &model_, &power_, controller_config());
  Rng rng(17);
  ASSERT_TRUE(controller.run_epoch(background(), 0.3, rng).feasible);

  // Crash every core switch: pods can no longer reach each other, so no
  // connected surviving subnet exists.
  FailureOverlay overlay(&topo_.graph());
  for (const Node& n : topo_.graph().nodes()) {
    if (n.type == NodeType::CoreSwitch) overlay.fail_node(n.id);
  }
  const RecoveryReport report = controller.on_failure(overlay);
  EXPECT_FALSE(report.connected);
  EXPECT_FALSE(hosts_connected(controller.current_mask(), &overlay));
}

TEST_F(FaultRecovery, EmptyOverlayClearsFaultState) {
  EpochController controller(&topo_, &model_, &power_, controller_config());
  Rng rng(17);
  ASSERT_TRUE(controller.run_epoch(background(), 0.3, rng).feasible);

  FailureOverlay overlay(&topo_.graph());
  overlay.fail_node(first_switch_of(topo_.graph(), NodeType::CoreSwitch));
  controller.on_failure(overlay);
  ASSERT_TRUE(controller.faults_active());

  overlay.repair_node(first_switch_of(topo_.graph(), NodeType::CoreSwitch));
  const RecoveryReport repaired = controller.on_failure(overlay);
  EXPECT_TRUE(repaired.connected);
  EXPECT_FALSE(controller.faults_active());
}

TEST_F(FaultRecovery, RecoveryIdenticalAcrossThreadCounts) {
  // The whole fault path is modeled, never wall-clock: a 4-thread planner
  // must produce the bit-identical recovery as the serial one.
  auto run = [&](int threads) {
    EpochController controller(&topo_, &model_, &power_,
                               controller_config(threads));
    Rng rng(17);
    const FlowSet flows = background();
    controller.run_epoch(flows, 0.3, rng);
    FailureOverlay overlay(&topo_.graph());
    overlay.fail_node(first_switch_of(topo_.graph(), NodeType::AggSwitch));
    overlay.fail_node(first_switch_of(topo_.graph(), NodeType::CoreSwitch));
    const RecoveryReport r = controller.on_failure(overlay);
    return std::make_tuple(r.connected, r.replanned, r.hot_recovery,
                           r.chosen_k, r.k_bumped, r.woken_backups,
                           r.emergency_boots, r.flows_rerouted,
                           r.affected_query_flows, r.time_to_replan,
                           r.estimated_outage_violations, r.actual_switches,
                           r.network_power, controller.current_mask());
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(16));
}

TEST(FaultSim, DesFaultReplayDeterministicAndObservable) {
  // The DES consumes the same timeline the controller does: flows crossing
  // failed elements are rerouted or dropped, counted in ClusterMetrics,
  // and the whole run is bit-identical when repeated.
  const FatTree topo(4);
  const ServiceModel model = fault_model();
  const ServerPowerModel power;
  FlowGenConfig gen;
  gen.exclude_host = 0;
  Rng rng(3);
  const FlowSet background = make_background_flows(gen, 6, 0.1, 0.1, rng);

  FaultInjectorConfig faults;
  faults.mtbf = sec(0.4);  // dense faults inside a short DES run
  faults.mttr = sec(0.5);
  faults.horizon = sec(3.0);
  faults.seed = 11;
  const FaultSchedule schedule =
      generate_fault_schedule(topo.graph(), faults);
  ASSERT_FALSE(schedule.timeline.empty());

  ScenarioConfig scenario;
  scenario.cluster.policy = "max";
  scenario.cluster.target_utilization = 0.15;
  scenario.cluster.warmup = sec(0.5);
  scenario.cluster.duration = sec(3.0);
  scenario.fault_timeline = &schedule.timeline;

  const auto a = run_search_scenario(topo, model, power, background, scenario);
  const auto b = run_search_scenario(topo, model, power, background, scenario);
  ASSERT_TRUE(a.placement_feasible);
  EXPECT_EQ(a.metrics.queries_completed, b.metrics.queries_completed);
  EXPECT_EQ(a.metrics.flows_rerouted, b.metrics.flows_rerouted);
  EXPECT_EQ(a.metrics.subqueries_dropped, b.metrics.subqueries_dropped);
  EXPECT_EQ(a.metrics.outage_sla_misses, b.metrics.outage_sla_misses);
  EXPECT_DOUBLE_EQ(a.metrics.query_latency.p95, b.metrics.query_latency.p95);
  EXPECT_DOUBLE_EQ(a.metrics.subquery_miss_rate, b.metrics.subquery_miss_rate);

  // With this fault density the run must have noticed the outages.
  EXPECT_GT(a.metrics.flows_rerouted + a.metrics.subqueries_dropped, 0u);

  // Healthy control: no fault accounting, and no drop-induced misses.
  ScenarioConfig healthy = scenario;
  healthy.fault_timeline = nullptr;
  const auto h = run_search_scenario(topo, model, power, background, healthy);
  EXPECT_EQ(h.metrics.flows_rerouted, 0u);
  EXPECT_EQ(h.metrics.subqueries_dropped, 0u);
  EXPECT_EQ(h.metrics.outage_sla_misses, 0u);
  EXPECT_LE(h.metrics.subquery_miss_rate, a.metrics.subquery_miss_rate + 0.02);
}

}  // namespace
}  // namespace eprons
