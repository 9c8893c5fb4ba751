// Tiny command-line flag parser used by benches and examples.
//
//   Cli cli(argc, argv);
//   const double util = cli.get_double("util", 0.3);
//   const bool csv = cli.has_flag("csv");
// Accepts --name=value and bare --name boolean flags (the space-separated
// "--name value" form is deliberately unsupported: it is ambiguous with
// boolean flags followed by positionals).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/table.h"
#include "util/thread_pool.h"

namespace eprons {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has_flag(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  long long get_int(const std::string& name, long long fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line that were never queried; useful for
  /// catching typos in experiment scripts.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// Shared runtime flags:
///   --threads[=N]      bare --threads uses the hardware concurrency,
///                      --threads=N pins the worker count; absent = serial.
///   --metrics-out=F    write the metrics-registry JSON snapshot to F.
///   --trace-out=F      write Chrome trace-event JSON (planner spans) to F.
///   --epoch-log=F      stream one JSONL record per planner epoch to F.
///   --log-level=L      debug|info|warn|error|off (overrides the
///                      EPRONS_LOG_LEVEL env var, which is applied here
///                      too).
/// The telemetry sinks take effect when the config reaches
/// obs::configure_telemetry — ScenarioBuilder::build() does this, so every
/// bench/example built on a Scenario gets them for free.
RuntimeConfig runtime_from_cli(const Cli& cli);

/// Shared output-format flags: --json wins over --csv; neither = pretty.
TableFormat table_format_from_cli(const Cli& cli);

/// Open-loop serving flags shared by the serving bench/example (mirrors
/// ServingHarnessConfig without depending on src/serve — the serve layer
/// applies the values).
struct ServingFlags {
  double peak_qps = 40.0;      ///< --peak-qps: rate at the diurnal peak
  double horizon_s = 1800.0;   ///< --horizon: modeled seconds to serve
  double epoch_s = 600.0;      ///< --epoch-len: re-plan cadence, seconds
  double window_s = 60.0;      ///< --window: report window, seconds
  std::string admission = "always";  ///< --admission=always|token-bucket|...
  std::string shed = "never";        ///< --shed=never|deadline
  long long seed = 1;          ///< --serve-seed: arrival + harness streams
  double flash_per_hour = 1.0; ///< --flash-per-hour: flash-crowd intensity
  bool no_burst = false;       ///< --no-burst: disable burst noise
  bool temporal = false;       ///< --temporal: deadline-bound background
  long long temporal_flows = 8;    ///< --temporal-flows: timed flow count
  long long temporal_cap = 0;      ///< --temporal-cap: epoch cap, Mbit
                                   ///<   (0 = derive from link capacity)
  long long temporal_volume = 0;   ///< --temporal-volume: mean flow volume,
                                   ///<   Mbit (0 = derive from capacity)
};

/// Shared serving flags (see ServingFlags member docs for the spellings).
ServingFlags serving_flags_from_cli(const Cli& cli);

}  // namespace eprons
