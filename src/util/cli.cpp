#include "util/cli.h"

#include <thread>

#include "util/log.h"
#include "util/strings.h"

namespace eprons {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    values_[arg] = "";  // bare boolean flag
  }
}

bool Cli::has_flag(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = fallback;
  return parse_double(it->second, value) ? value : fallback;
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  long long value = fallback;
  return parse_int(it->second, value) ? value : fallback;
}

RuntimeConfig runtime_from_cli(const Cli& cli) {
  RuntimeConfig runtime;
  if (cli.has_flag("threads")) {
    const long long requested = cli.get_int("threads", 0);
    if (requested > 0) {
      runtime.threads = static_cast<int>(requested);
    } else {
      const unsigned hw = std::thread::hardware_concurrency();
      runtime.threads = hw > 0 ? static_cast<int>(hw) : 1;
    }
  }
  // Telemetry sinks (see src/obs). The env var is applied first so an
  // explicit --log-level flag wins over EPRONS_LOG_LEVEL.
  runtime.metrics_out = cli.get_string("metrics-out", "");
  runtime.trace_out = cli.get_string("trace-out", "");
  runtime.epoch_log_out = cli.get_string("epoch-log", "");
  apply_log_level_from_env();
  runtime.log_level = cli.get_string("log-level", "");
  LogLevel level;
  if (!runtime.log_level.empty() &&
      !parse_log_level(runtime.log_level, level)) {
    EPRONS_LOG(Warn) << "unknown --log-level '" << runtime.log_level
                     << "' (want debug|info|warn|error|off); ignoring";
    runtime.log_level.clear();
  }
  return runtime;
}

TableFormat table_format_from_cli(const Cli& cli) {
  if (cli.has_flag("json")) return TableFormat::kJson;
  if (cli.has_flag("csv")) return TableFormat::kCsv;
  return TableFormat::kPretty;
}

ServingFlags serving_flags_from_cli(const Cli& cli) {
  ServingFlags flags;
  flags.peak_qps = cli.get_double("peak-qps", flags.peak_qps);
  flags.horizon_s = cli.get_double("horizon", flags.horizon_s);
  flags.epoch_s = cli.get_double("epoch-len", flags.epoch_s);
  flags.window_s = cli.get_double("window", flags.window_s);
  flags.admission = cli.get_string("admission", flags.admission);
  flags.shed = cli.get_string("shed", flags.shed);
  flags.seed = cli.get_int("serve-seed", flags.seed);
  flags.flash_per_hour =
      cli.get_double("flash-per-hour", flags.flash_per_hour);
  flags.no_burst = cli.has_flag("no-burst");
  flags.temporal = cli.has_flag("temporal");
  flags.temporal_flows = cli.get_int("temporal-flows", flags.temporal_flows);
  flags.temporal_cap = cli.get_int("temporal-cap", flags.temporal_cap);
  flags.temporal_volume =
      cli.get_int("temporal-volume", flags.temporal_volume);
  return flags;
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

}  // namespace eprons
