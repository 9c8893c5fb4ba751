// Shared plumbing of the benchmark driver: timing, order statistics,
// fingerprints, output-identity checks and the metric values a workload
// returns.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile (rank = ceil(q * n)); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

/// Middle value (mean of the two middle values for even counts).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// FNV-1a 64 over the bytes of modeled outputs. Doubles hash by bit
/// pattern, so two runs agree only when every modeled value is identical.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(long long v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Output-identity checks. Every checked output is one attempted operation;
/// a violated identity (or a library call that threw) is a failed one.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few messages, for the log

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// What one workload run hands back to main(): the metric values of the
/// requested mode (end-to-end untraced, per-layer traced), the output
/// checks, and the modeled-output fingerprint. run.py attaches the units
/// BENCHMARK.json gives the names.
struct Outcome {
  Checks checks;
  std::map<std::string, double> values;
  std::string fingerprint;
  /// Free-form "key: value" lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& key, const std::string& value) {
    notes.push_back(key + ": " + value);
  }
};

/// Set-up samples the setup_s median is taken over, at least.
inline constexpr int kSetupSamples = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds the measured phase should last (at least one unit runs).
  double seconds = 10.0;
  bool trace = false;
  /// Planner threads; 0 = the workload's default.
  int threads = 0;
  /// Short inputs for the benchmark's own tests (not for measurements).
  bool smoke = false;
  /// This process's directory for its files (epoch logs), inside the
  /// checkout; main() creates it and removes it on exit.
  std::string run_dir;

  int setup_samples() const { return smoke ? 1 : kSetupSamples; }
};

/// Host-time samples by metric name; the metric reports their median.
using Samples = std::map<std::string, std::vector<double>>;

/// Values as one space-separated line (for the run log).
inline std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

/// CPU sets as one line, e.g. "0,2 1,3" (for the run log).
inline std::string join_cpus(const std::vector<std::vector<int>>& sets) {
  std::string out;
  for (const auto& set : sets) {
    if (!out.empty()) out += ' ';
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(set[i]);
    }
  }
  return out;
}

/// Peak resident set of this process so far (VmHWM), MB.
double peak_rss_mb();

/// Pins every thread of this process to the `count` CPUs (of those it may
/// use) on which a short benchmark-owned probe runs fastest right now, and
/// returns them. On a shared host the speed of a virtual CPU swings by up to
/// 1.7x for seconds at a time while its neighbours are busy; measuring on the
/// currently quiet ones keeps runs comparable.
std::vector<int> pin_to_fastest_cpus(int count);

/// Host seconds of the benchmark-owned speed probe on an unloaded CPU of the
/// reference machine (a 4-vCPU 2.0 GHz x86-64 virtual machine).
inline constexpr double kProbeReferenceS = 3.0e-3;

/// kProbeReferenceS over the probe's host time on this CPU right now.
/// Set-up takes milliseconds and allocates fresh memory, which makes it the
/// metric a busy shared host skews most: the ratio of a set-up sample to a
/// probe timed just before it varied by about 2% across 10-second spans on
/// such a host, the sample itself by about 11%. Multiplying a set-up sample
/// by this factor expresses it at the reference machine's speed.
double reference_speed();

/// Set-up samples a workload takes right before each measured unit (the
/// last one builds the state the unit runs on). Spreading the samples over
/// the run keeps one slow moment of a shared host from setting setup_s.
inline constexpr int kSetupsPerUnit = 5;

/// What one measured unit hands back: its host time and the fingerprint of
/// its modeled outputs.
struct UnitResult {
  double wall_s = 0.0;
  std::string fingerprint;
};

/// Host times of the measured units of one run.
struct Timing {
  std::vector<double> walls;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  /// CPUs the process was pinned to for each unit.
  std::vector<std::vector<int>> cpus;
  /// Peak resident memory of the process through its first unit, MB. Later
  /// units reuse a heap whose layout depends on thread timing, so their
  /// peaks are not reproducible.
  double first_unit_peak_rss_mb = 0.0;
};

/// Runs `unit(index, traced)` until `options.seconds` of host time have
/// passed, at least once (twice for a traced run, which alternates untraced
/// and traced units: odd units are traced), pinning the process to the
/// `threads` fastest CPUs before each unit. Every unit must reproduce the
/// first unit's fingerprint, which becomes the run's. The units' walls and
/// CPUs go to the run log.
template <typename Fn>
Timing measure_units(const Options& options, int threads, Outcome* out,
                     Fn&& unit) {
  Timing timing;
  const int min_units = options.trace ? 2 : 1;
  const auto start = Clock::now();
  while (static_cast<int>(timing.walls.size()) < min_units ||
         seconds_since(start) < options.seconds) {
    const int index = static_cast<int>(timing.walls.size());
    const bool traced = options.trace && index % 2 == 1;
    timing.cpus.push_back(pin_to_fastest_cpus(threads));
    const UnitResult result = unit(index, traced);
    if (index == 0) {
      timing.first_unit_peak_rss_mb = peak_rss_mb();
      out->fingerprint = result.fingerprint;
    }
    out->checks.expect(result.fingerprint == out->fingerprint,
                       "back-to-back units give identical outputs");
    timing.walls.push_back(result.wall_s);
    (traced ? timing.traced_walls : timing.untraced_walls)
        .push_back(result.wall_s);
  }
  out->note("workload", options.workload);
  out->note("runs", std::to_string(timing.walls.size()));
  out->note("unit_walls_s", join(timing.walls));
  out->note("unit_cpus", join_cpus(timing.cpus));
  return timing;
}

}  // namespace perfbench
