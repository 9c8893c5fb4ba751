// Shared fixtures for the figure-reproduction benches.
//
// Every bench binary prints the series of one paper figure as an aligned
// table (or CSV/JSON with --csv/--json) plus a short header stating what
// the paper reported, so `for b in build/bench/*; do $b; done` produces a
// complete paper-vs-measured record.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/scenario.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

namespace eprons::bench {

/// The benches' common substrate: 4-ary fat-tree, synthetic search
/// workload (50K samples, 256 bins — enough resolution for figure
/// reproduction at a fraction of the paper's 100K build cost), default
/// Xeon power calibration. Honors --threads[=N] so any figure bench can
/// run its planner in parallel without changing results, plus the
/// telemetry flags (--metrics-out=FILE, --trace-out=FILE,
/// --epoch-log=FILE, --log-level=LEVEL) — ScenarioBuilder::build()
/// forwards them to obs::configure_telemetry, so every bench exports
/// planner metrics / Chrome traces with no per-bench wiring.
inline Scenario make_scenario(const Cli& cli, std::uint64_t seed = 1) {
  SyntheticWorkloadConfig workload;
  workload.samples = 50000;
  workload.bins = 256;
  return ScenarioBuilder()
      .seed(seed)
      .fat_tree(4)
      .workload(workload)
      .runtime(runtime_from_cli(cli))
      .build();
}

inline void print_header(const std::string& figure,
                         const std::string& paper_result) {
  std::printf("== %s ==\n", figure.c_str());
  std::printf("paper: %s\n\n", paper_result.c_str());
}

}  // namespace eprons::bench
