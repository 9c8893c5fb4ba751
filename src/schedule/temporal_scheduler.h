// Temporal scheduling of deadline-bound background flows.
//
// EPRONS's joint optimizer decides *where* traffic goes (routing + subnet
// + K); this layer decides *when* elastic background volume moves. Given a
// set of TimedFlows (flow/timed_flow.h), a horizon of fixed-length epochs,
// a per-epoch marginal-energy cost (typically `diurnal_epoch_cost`: night
// epochs are expensive because carrying volume keeps switches awake that
// consolidation would otherwise turn off; query-peak epochs are cheap
// because foreground demand already pays for the subnet), and per-epoch
// elastic-budget caps, the scheduler allocates each flow's volume into
// epochs of its [release, deadline] window and emits one per-epoch FlowSet
// demand matrix, consumed *unchanged* by JointOptimizer/EpochController —
// the planner never learns flows became elastic; it just sees background
// demand that vacated the night, so the nighttime subnet shutdown deepens.
//
// Two algorithms share the instance model (docs/SCHEDULING.md):
//   * GREEDY TROUGH-FILLING (production path): flows in (deadline,
//     release, id) order; each fills the cheapest epochs of its window
//     first, capped per epoch (aggregate elastic budget) and per flow
//     (rate cap). Cost-greedy can strand a later flow, so when any volume
//     is left over the scheduler falls back to fluid EDF — earliest
//     deadline first, epoch by epoch — which is feasibility-optimal for
//     this model: if EDF misses a deadline, no schedule meets it.
//   * EXACT SMALL-INSTANCE REFERENCE (schedule/exact_scheduler.h): the
//     same instance as a transportation LP on the in-repo simplex, used
//     by tests/schedule_test.cpp to bound the greedy cost gap and
//     cross-check feasibility verdicts.
//
// Determinism contract (docs/DETERMINISM.md): scheduling itself is pure
// integer/double arithmetic over deterministically ordered loops — no RNG.
// `runtime.threads` only parallelizes the per-epoch demand-matrix
// materialization (slot-writes via parallel_for), so every schedule, and
// every byte of every epoch FlowSet, is identical for any --threads value.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/timed_flow.h"
#include "util/thread_pool.h"

namespace eprons {

struct TemporalSchedulerConfig {
  /// Scheduling horizon, epochs.
  int epochs = 24;
  /// Epoch length, seconds (converts Mbit allocations into Mbps demands:
  /// demand = mbit / epoch_seconds).
  double epoch_seconds = 3600.0;
  /// Per-epoch marginal cost of carrying elastic volume (size `epochs`;
  /// empty = flat). Only the ordering matters to the greedy pass; the
  /// objective reported is sum(cost[e] * mbit[e]). Use
  /// `diurnal_epoch_cost` for the energy-aware price (1 - diurnal shape).
  std::vector<double> epoch_cost;
  /// Aggregate elastic budget per epoch, Mbit (all flows combined).
  long long epoch_cap_mbit = 0;
  /// Per-flow per-epoch allocation cap, Mbit (bounds one transfer's rate
  /// so a packed epoch stays placeable under the consolidator's safety
  /// margin). 0 = unlimited.
  long long flow_rate_cap_mbit = 0;
  /// Worker threads for the epoch demand-matrix materialization. Results
  /// are independent of this value.
  RuntimeConfig runtime;
};

/// The scheduler's decision for one instance, plus the fixed-order
/// roll-ups the ledger records are built from. All *_total fields are
/// DEFINED as the fixed-order sums of their components (integer Mbit, so
/// the sums are exact — see flow/timed_flow.h).
struct TemporalSchedule {
  /// One allocation: `mbit` of a flow's volume carried in `epoch`.
  struct Allocation {
    int epoch = 0;
    long long mbit = 0;
  };

  int epochs = 0;
  double epoch_seconds = 0.0;

  // -- Per flow (indexed by TimedFlow id). -------------------------------
  /// Allocations in ascending epoch order.
  std::vector<std::vector<Allocation>> per_flow;
  /// Volume left unplaced at the deadline, Mbit (0 = deadline met).
  std::vector<long long> missed_mbit;
  /// First/last epoch carrying any of the flow's volume (-1 = none).
  std::vector<int> start_epoch;
  std::vector<int> finish_epoch;

  // -- Per epoch (fixed summation order: flow id ascending). -------------
  std::vector<long long> carried_mbit;
  /// Released-but-unfinished volume at the epoch's end (excludes volume
  /// already expired), Mbit.
  std::vector<long long> backlog_mbit;
  /// Missed volume charged to the epoch its deadline expired in, Mbit.
  std::vector<long long> expired_mbit;
  std::vector<int> flows_active;
  std::vector<int> flows_completed;

  // -- Headline totals (defined as fixed-order component sums). ----------
  /// Sum of carried_mbit over epochs, in epoch order.
  long long carried_total_mbit = 0;
  /// Sum of missed_mbit over flows, in flow-id order.
  long long missed_total_mbit = 0;
  /// DEFINED as carried_total_mbit + missed_total_mbit; equals the
  /// instance's total volume exactly (integer conservation).
  long long total_volume_mbit = 0;
  /// Flows with missed_mbit > 0 — the hard-deadline miss count.
  int deadline_misses = 0;
  /// Volume-weighted deferral: sum over allocations of
  /// mbit * (epoch - release_epoch), Mbit-epochs. 0 = everything moved at
  /// release; large = the scheduler pushed volume deep into the window.
  long long deferred_mbit_epochs = 0;
  /// Greedy objective sum(cost[e] * mbit) over allocations, flow-id-major.
  double objective_cost = 0.0;
  /// The cost-greedy pass stranded volume and the fluid-EDF repair pass
  /// produced this schedule instead.
  bool used_edf_fallback = false;

  /// Per-epoch demand matrices: one LatencyTolerant Flow per timed flow
  /// with volume in that epoch, demand = mbit / epoch_seconds (Mbps),
  /// flow-id order. Consumed unchanged by JointOptimizer/EpochController.
  std::vector<FlowSet> epoch_flows;

  /// Mean elastic demand the schedule injects in `epoch`, Mbps.
  double demand_mbps(int epoch) const;
  /// Appends epoch `epoch`'s scheduled flows to `out` (flow-id order) —
  /// for layering scheduled demand on top of an inelastic background set.
  void append_epoch_flows(int epoch, FlowSet* out) const;
  /// Canonical text dump of every allocation + miss (byte-equality tests).
  std::string dump() const;
  /// FNV-1a 64 over the allocation stream (flow, epoch, mbit) and misses.
  std::uint64_t fingerprint() const;
};

class TemporalScheduler {
 public:
  explicit TemporalScheduler(TemporalSchedulerConfig config);

  const TemporalSchedulerConfig& config() const { return config_; }
  /// Effective cost of epoch `e` (0.0 when epoch_cost is empty).
  double epoch_cost(int epoch) const;

  /// Schedules one instance: greedy trough-filling, fluid-EDF fallback on
  /// stranded volume, then per-epoch demand-matrix materialization
  /// (parallelized when runtime.threads > 1; bit-identical either way).
  /// Thread-safe: const, no mutable state beyond the internal pool.
  TemporalSchedule schedule(const TimedFlowSet& flows) const;

  /// Per-epoch marginal-energy price read off a diurnal curve:
  /// 1 - mean(diurnal_shape) over each epoch's minutes, offset by
  /// `start_offset_seconds` into the modeled day. Night epochs cost the
  /// most (carrying volume there keeps an otherwise-sleeping subnet
  /// awake), query-peak epochs the least (the foreground load already
  /// pays for the switches) — so trough-filling piggybacks elastic volume
  /// on the daytime subnet and vacates the night.
  static std::vector<double> diurnal_epoch_cost(
      const struct DiurnalTraceConfig& diurnal, int epochs,
      double epoch_seconds, double start_offset_seconds = 0.0);

 private:
  /// Cost-greedy pass; returns true when every flow placed fully.
  bool greedy_pass(const TimedFlowSet& flows, TemporalSchedule* out) const;
  /// Fluid EDF (earliest deadline first, epoch by epoch) — feasibility-
  /// optimal: it misses a deadline only when every schedule would.
  void edf_pass(const TimedFlowSet& flows, TemporalSchedule* out) const;
  void finalize(const TimedFlowSet& flows, TemporalSchedule* out) const;

  TemporalSchedulerConfig config_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace eprons
