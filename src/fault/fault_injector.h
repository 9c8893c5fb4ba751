// Deterministic, seed-driven fault injection for the consolidated fabric.
//
// EPRONS concentrates traffic on a minimal subnet, which is exactly the
// configuration most fragile to an unplanned switch or link outage. This
// module generates a failure schedule up front — switch crashes, link
// outages, and flaky links that flap several times before settling — from a
// single seed, so every run (and every `--threads` setting) sees the
// bit-identical schedule. The schedule is consumed either by the DES
// (sim/search_cluster reroutes or drops flows mid-run) or by the epoch
// loop (core/epoch_controller's emergency re-plan), both through the same
// FaultCursor → topo::FailureOverlay pipeline.
//
// Determinism contract: generation is serial and draws from three
// Rng::split streams (arrival times, victim selection, repair times) of
// the root seed. Nothing here depends on thread count or wall clock.
#pragma once

#include <vector>

#include "topo/graph.h"
#include "util/rng.h"
#include "util/types.h"

namespace eprons {

enum class FaultType {
  SwitchCrash,  // a switch dies and reboots after a repair delay
  LinkDown,     // a single link outage with one repair
  LinkFlap,     // a flaky link: several short outages in quick succession
};

/// One injected fault: the element goes down at `time` and is repaired at
/// `repair`. Exactly one of `node`/`link` is valid, keyed by `type`.
struct FaultEvent {
  SimTime time = 0.0;
  SimTime repair = 0.0;
  FaultType type = FaultType::LinkDown;
  NodeId node = kInvalidNode;
  LinkId link = kInvalidLink;
};

/// A fault schedule flattened into apply-order: `up == false` marks the
/// element failing, `up == true` its repair. Sorted by (time, repairs
/// first, node, link) so a repair and a re-failure at the same instant
/// leave the element failed — and so the order is total and seed-stable.
struct FaultTransition {
  SimTime time = 0.0;
  bool up = false;
  FaultType type = FaultType::LinkDown;
  NodeId node = kInvalidNode;
  LinkId link = kInvalidLink;
};

struct FaultInjectorConfig {
  /// Mean time between fault arrivals across the whole fabric (exponential).
  SimTime mtbf = sec(600.0);
  /// Mean time to repair one outage (exponential).
  SimTime mttr = sec(120.0);
  /// Probability an arrival hits a switch rather than a link.
  double switch_fraction = 0.4;
  /// Probability a link fault is a flap burst instead of one outage.
  double flaky_fraction = 0.25;
  /// Outages per flap burst; each lasts ~ mttr/flap_count with a gap of
  /// the same scale before the next.
  int flap_count = 3;
  /// Hosts are single-homed, so an edge-switch crash is a physical
  /// partition no re-plan can route around; by default crashes only hit
  /// aggregation and core switches, matching the paper's assumption that
  /// the edge tier stays powered (Section IV-B).
  bool spare_edge_switches = true;
  /// Faults arrive in [0, horizon); repairs may land past it.
  SimTime horizon = sec(7200.0);
  std::uint64_t seed = 7;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;           // in arrival order
  std::vector<FaultTransition> timeline;    // flattened, apply-order
};

/// Generates the schedule for `graph` under `config`. Pure function of its
/// arguments; returns an empty schedule when the graph has no eligible
/// victims (e.g. switch_fraction == 1 on an edge-only topology).
FaultSchedule generate_fault_schedule(const Graph& graph,
                                      const FaultInjectorConfig& config);

/// Walks a timeline forward, applying transitions to a FailureOverlay.
/// Replays identically from any consumer: the DES steps it inside the
/// event loop, the epoch controller between polls.
class FaultCursor {
 public:
  FaultCursor(const Graph* graph, const std::vector<FaultTransition>* timeline)
      : overlay_(graph), timeline_(timeline) {}

  /// Applies every transition with time <= t; returns how many fired.
  int advance_to(SimTime t);

  bool exhausted() const { return next_ >= timeline_->size(); }
  /// Time of the next unapplied transition (meaningless when exhausted).
  SimTime next_time() const { return (*timeline_)[next_].time; }

  const FailureOverlay& overlay() const { return overlay_; }

 private:
  FailureOverlay overlay_;
  const std::vector<FaultTransition>* timeline_;
  std::size_t next_ = 0;
};

}  // namespace eprons
