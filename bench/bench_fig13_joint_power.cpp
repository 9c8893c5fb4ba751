// Fig. 13: total system power vs request tail-latency constraint under the
// four aggregation policies, at 1% / 20% / 50% background traffic
// (30% server utilization, 36 W switches, 12-core CPUs, 20 W static).
//
// Paper shape: (a) at 1% background every aggregation nearly meets every
// constraint and aggregation 3 is cheapest; (b) at 20%, aggregation 3
// cannot support constraints below ~29 ms — and between ~29-31 ms turning
// a switch *on* (aggregation 2) lowers TOTAL power because servers gain
// slack; (c) at 50%, aggregation 3 is out and aggregation 2 needs > 31 ms.
#include "bench_common.h"
#include "core/attribution.h"
#include "obs/telemetry.h"
#include "sim/search_cluster.h"
#include "topo/aggregation.h"

using namespace eprons;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const double duration_s = cli.get_double("duration", 6.0);
  bench::print_header(
      "Fig. 13 — total system power vs constraint, by aggregation policy",
      "higher aggregation saves switches but steals server slack; at "
      "20-50% background the tightest constraints favor turning switches "
      "back ON (aggregation 2 beats 3)");

  const Scenario scn = bench::make_scenario(cli);
  const AggregationPolicies policies(scn.fat_tree());
  const std::vector<double> constraints = {19, 22, 25, 28, 31, 34, 37, 40};
  // An operating point "meets" the SLA if the request miss rate stays near
  // the 5% budget; beyond this the row shows "-" like the paper's missing
  // points.
  const double miss_budget = cli.get_double("miss-budget", 0.08);

  for (double bg : {0.01, 0.20, 0.50}) {
    std::printf("background traffic %.0f%%\n", bg * 100.0);
    std::vector<std::string> cols = {"scheme"};
    for (double c : constraints) cols.push_back(strformat("%.0fms", c));
    Table table(std::move(cols));
    table.set_precision(0);

    Rng bg_rng(400 + static_cast<std::uint64_t>(bg * 100));
    const FlowSet background =
        make_background_flows(scn.flow_gen(), 6, bg, 0.1, bg_rng);

    // Baseline: no power management (full topology, max frequency).
    {
      std::vector<Cell> row{std::string("no-power-mgmt")};
      const auto full = policies.policy(0).switch_on;
      ScenarioConfig scenario;
      scenario.cluster.policy = "max";
      scenario.cluster.target_utilization = 0.3;
      scenario.cluster.duration = sec(duration_s);
      scenario.cluster.warmup = sec(1.0);
      const auto result =
          scn.run(background, scenario, &full);
      for (std::size_t i = 0; i < constraints.size(); ++i) {
        // In place: moving a temporary Cell into the row trips a false
        // GCC 12 -Wmaybe-uninitialized on the variant's string alternative.
        row.emplace_back(std::in_place_type<double>,
                         result.metrics.total_system_power);
      }
      table.add_row(std::move(row));
    }

    // EPRONS joint optimizer: per constraint, search K (subnet + server
    // budget split) for the minimum *predicted* total power. This is the
    // planner's answer to the same question the fixed-aggregation rows
    // answer by simulation — and the row that exercises consolidation,
    // slack estimation, and K-candidate spans for --trace-out.
    {
      std::vector<Cell> row{std::string("joint optimizer")};
      // With --epoch-log, every (background, constraint) cell becomes one
      // "epoch" in the JSONL stream: an attribution ledger line (per-layer
      // power components summing bit-identically to the plan's totals) and
      // a plan_explain line (the candidate-K table with reject reasons).
      static int cell_epoch = 0;
      obs::JsonlWriter* sink = obs::epoch_log();
      for (double c : constraints) {
        JointOptimizerConfig joint;
        joint.latency_constraint = ms(c);
        joint.server_budget = ms(c - 5.0);
        obs::PlanExplainRecord explain;
        PlanRequest request;
        request.background = &background;
        request.utilization = 0.3;
        request.explain = &explain;
        const JointPlan plan = scn.optimizer(joint).optimize(request);
        if (sink) {
          sink->write(make_plan_attribution(joint, plan, "bench_fig13",
                                            cell_epoch));
          explain.source = "bench_fig13";
          explain.epoch = cell_epoch;
          sink->write(explain);
          ++cell_epoch;
        }
        if (!plan.feasible) {
          row.push_back(std::string("-"));  // no K meets this constraint
        } else {
          row.push_back(plan.total_power);
        }
      }
      table.add_row(std::move(row));
    }

    for (int level = 0; level <= 3; ++level) {
      std::vector<Cell> row{strformat("aggregation %d", level)};
      const auto subnet = policies.policy(level).switch_on;
      for (double c : constraints) {
        ScenarioConfig scenario;
        scenario.cluster.policy = "eprons";
        scenario.cluster.target_utilization = 0.3;
        scenario.cluster.latency_constraint = ms(c);
        scenario.cluster.server_budget = ms(c - 5.0);
        scenario.cluster.duration = sec(duration_s);
        scenario.cluster.warmup = sec(1.0);
        const auto result =
            scn.run(background, scenario, &subnet);
        if (result.metrics.subquery_miss_rate > miss_budget) {
          row.push_back(std::string("-"));  // constraint not supportable
        } else {
          // In place, as above.
          row.emplace_back(std::in_place_type<double>,
                           result.metrics.total_system_power);
        }
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout, fmt);
    std::printf("\n");
  }
  return 0;
}
