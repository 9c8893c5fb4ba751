#include "fault/fault_injector.h"

#include <algorithm>
#include <tuple>

#include "obs/telemetry.h"

namespace eprons {

namespace {

void push_transitions(const FaultEvent& e,
                      std::vector<FaultTransition>& out) {
  out.push_back({e.time, false, e.type, e.node, e.link});
  out.push_back({e.repair, true, e.type, e.node, e.link});
}

}  // namespace

FaultSchedule generate_fault_schedule(const Graph& graph,
                                      const FaultInjectorConfig& config) {
  FaultSchedule schedule;

  std::vector<NodeId> victim_switches;
  for (const Node& n : graph.nodes()) {
    if (!is_switch_type(n.type)) continue;
    if (config.spare_edge_switches && n.type == NodeType::EdgeSwitch) continue;
    victim_switches.push_back(n.id);
  }
  const std::size_t num_links = graph.num_links();

  Rng root(config.seed);
  Rng arrivals = root.split();
  Rng victims = root.split();
  Rng repairs = root.split();

  // Flap bursts split one mean repair time across `flap_count` outages.
  const double flap_scale =
      config.mttr / static_cast<double>(std::max(config.flap_count, 1));

  SimTime t = 0.0;
  while (true) {
    t += arrivals.exponential(config.mtbf);
    if (t >= config.horizon) break;

    const bool hit_switch =
        victims.bernoulli(config.switch_fraction) && !victim_switches.empty();
    if (hit_switch) {
      const NodeId victim = victim_switches[static_cast<std::size_t>(
          victims.uniform_int(0, static_cast<std::int64_t>(
                                     victim_switches.size() - 1)))];
      FaultEvent e;
      e.time = t;
      e.repair = t + repairs.exponential(config.mttr);
      e.type = FaultType::SwitchCrash;
      e.node = victim;
      schedule.events.push_back(e);
      continue;
    }
    if (num_links == 0) continue;  // keep the stream draws above stable

    const LinkId victim = static_cast<LinkId>(
        victims.uniform_int(0, static_cast<std::int64_t>(num_links - 1)));
    if (victims.bernoulli(config.flaky_fraction)) {
      SimTime flap_start = t;
      for (int i = 0; i < std::max(config.flap_count, 1); ++i) {
        FaultEvent e;
        e.time = flap_start;
        e.repair = flap_start + repairs.exponential(flap_scale);
        e.type = FaultType::LinkFlap;
        e.link = victim;
        schedule.events.push_back(e);
        flap_start = e.repair + repairs.exponential(flap_scale);
      }
    } else {
      FaultEvent e;
      e.time = t;
      e.repair = t + repairs.exponential(config.mttr);
      e.type = FaultType::LinkDown;
      e.link = victim;
      schedule.events.push_back(e);
    }
  }

  schedule.timeline.reserve(schedule.events.size() * 2);
  for (const FaultEvent& e : schedule.events) {
    push_transitions(e, schedule.timeline);
  }
  std::sort(schedule.timeline.begin(), schedule.timeline.end(),
            [](const FaultTransition& a, const FaultTransition& b) {
              // Repairs before failures at the same instant: a
              // repair-then-refail collision leaves the element failed.
              return std::make_tuple(a.time, !a.up, a.node, a.link) <
                     std::make_tuple(b.time, !b.up, b.node, b.link);
            });
  return schedule;
}

int FaultCursor::advance_to(SimTime t) {
  static obs::Counter& injected = obs::metrics().counter("fault.injected");
  static obs::Counter& repaired = obs::metrics().counter("fault.repaired");
  int fired = 0;
  while (next_ < timeline_->size() && (*timeline_)[next_].time <= t) {
    const FaultTransition& tr = (*timeline_)[next_];
    if (tr.node != kInvalidNode) {
      tr.up ? overlay_.repair_node(tr.node) : overlay_.fail_node(tr.node);
    } else {
      tr.up ? overlay_.repair_link(tr.link) : overlay_.fail_link(tr.link);
    }
    (tr.up ? repaired : injected).add();
    ++next_;
    ++fired;
  }
  return fired;
}

}  // namespace eprons
