// The benchmark's three workloads. Each runs in its own process (run.py
// starts one per invocation), builds its inputs from the seed, measures,
// checks its outputs and returns either the end-to-end metrics or, when
// traced, the per-layer metrics. README.md documents why each was chosen.
#pragma once

#include "bench_util.h"
#include "core/scenario.h"

namespace perfbench {

/// Open-loop ServingHarness under 8x overload with sla-aware admission.
Outcome run_serve_overload(const Options& options);
/// TraceReplay (paper Fig. 15) of the no-pm and eprons schemes.
Outcome run_diurnal_replay(const Options& options);
/// Planner-only k=16 epoch loop with faults and scheduled timed flows.
Outcome run_plan_k16(const Options& options);

/// The benches' k-ary fat-tree substrate: synthetic search workload with
/// 50K samples / 256 bins and the default Xeon power calibration. The model
/// seed is fixed: it calibrates the system, it is not workload input.
eprons::Scenario make_scenario(int k_ary, int threads);

/// Adds the host metrics every workload reports untraced: setup_s (median
/// of `setup["setup_s"]`), wall_s (median unit) and peak_rss_mb.
void add_common_metrics(Outcome* outcome, const Timing& timing,
                        const Samples& setup);

/// Adds the median of every set-up part in `setup` (every name but
/// setup_s, the whole), for the traced run.
void add_setup_parts(Outcome* outcome, const Samples& setup);

}  // namespace perfbench
