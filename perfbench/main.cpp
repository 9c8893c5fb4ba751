// Benchmark driver: runs one workload in this process and prints its
// result as the last stdout line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"wall_s": 4.21, ...}}
//
//   perfbench --workload=serve-overload|diurnal-replay|plan-k16
//             [--seed=N] [--seconds=S] [--trace=0|1] [--threads=N] [--smoke]
//
// Run it from the repository root: it writes its epoch logs under
// .bench_out/. run.py builds this binary and wraps it with the benchmark's
// command-line contract, attaching each metric's unit; see README.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <queue>
#include <string>

#include "util/cli.h"
#include "workloads.h"

namespace perfbench {

using namespace eprons;

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// A few milliseconds of benchmark-owned work (event-heap churn through
/// std::function callbacks and log/exp arithmetic); returns its host ns.
double probe_ns() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Event {
    double when;
    std::function<void()> callback;
    bool operator<(const Event& other) const { return when > other.when; }
  };
  double sink = 0.0;
  const double payload[4] = {1.0, 2.0, 3.0, 4.0};
  std::priority_queue<Event> heap;
  for (int i = 0; i < 1024; ++i) {
    heap.push({static_cast<double>(next() % 100000),
               [payload, &sink] { sink += payload[0]; }});
  }
  for (int i = 0; i < 20000; ++i) {
    Event e = heap.top();
    heap.pop();
    e.callback();
    sink += std::log(1.0 + e.when);
    heap.push({e.when + static_cast<double>(next() % 1000),
               [payload, &sink] { sink += payload[1]; }});
  }
  if (!std::isfinite(sink)) std::abort();  // keeps the work observable
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// CPUs this process may run on, captured on first use.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_all_threads(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (tid > 0) sched_setaffinity(tid, sizeof set, &set);
  }
}

}  // namespace

std::vector<int> pin_to_fastest_cpus(int count) {
  const std::vector<int>& cpus = allowed_cpus();
  if (static_cast<int>(cpus.size()) <= std::max(count, 1)) return cpus;
  std::vector<std::pair<double, int>> speed;
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    speed.emplace_back(std::min(probe_ns(), probe_ns()), cpu);
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::vector<int> out;
  for (const auto& [ns, cpu] : speed) {
    if (static_cast<int>(out.size()) == std::max(count, 1)) break;
    CPU_SET(cpu, &chosen);
    out.push_back(cpu);
  }
  if (out.empty()) return cpus;
  std::sort(out.begin(), out.end());
  pin_all_threads(chosen);
  return out;
}

double reference_speed() {
  return kProbeReferenceS * 1e9 / std::min(probe_ns(), probe_ns());
}

Scenario make_scenario(int k_ary, int threads) {
  SyntheticWorkloadConfig workload;
  workload.samples = 50000;
  workload.bins = 256;
  return ScenarioBuilder()
      .seed(1)
      .fat_tree(k_ary)
      .workload(workload)
      .threads(threads)
      .build();
}

void add_common_metrics(Outcome* outcome, const Timing& timing,
                        const Samples& setup) {
  outcome->set("setup_s", median(setup.at("setup_s")));
  outcome->set("wall_s", median(timing.walls));
  outcome->set("peak_rss_mb", timing.first_unit_peak_rss_mb);
}

void add_setup_parts(Outcome* outcome, const Samples& setup) {
  for (const auto& [name, samples] : setup) {
    if (name != "setup_s") outcome->set(name, median(samples));
  }
}

namespace {

/// Prints the result line with the metric values the workload set, by
/// name; run.py attaches their units. A non-finite value is a failed check
/// and prints as 0.
void print_result(Outcome* outcome) {
  std::string metrics;
  for (const auto& [name, measured] : outcome->values) {
    double value = measured;
    outcome->checks.expect(std::isfinite(value),
                           "metric " + name + " finite");
    if (!std::isfinite(value)) value = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                  metrics.empty() ? "" : ", ", name.c_str(), value);
    metrics += buf;
  }
  for (const std::string& failure : outcome->checks.failures) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              outcome->checks.failed == 0 ? "true" : "false",
              outcome->checks.attempted, outcome->checks.failed,
              metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const eprons::Cli cli(argc, argv);
  Options options;
  options.workload = cli.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.threads = static_cast<int>(cli.get_int("threads", 0));
  options.smoke = cli.has_flag("smoke");
  if (!cli.unused().empty()) {
    std::fprintf(stderr, "perfbench: unknown flag --%s\n",
                 cli.unused().front().c_str());
    return 2;
  }
  if (options.seconds < 0.0 || options.threads < 0) {
    std::fprintf(stderr, "perfbench: --seconds >= 0 and --threads >= 0 "
                         "required\n");
    return 2;
  }

  // Each process writes its logs under .bench_out/ in a directory of its
  // own, removed on exit, so concurrent runs never read each other's files.
  const std::filesystem::path run_dir =
      std::filesystem::path(".bench_out") / std::to_string(getpid());
  options.run_dir = run_dir.string();
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_on_exit{run_dir};

  Outcome outcome;
  try {
    std::filesystem::create_directories(options.run_dir);
    if (options.workload == "serve-overload") {
      outcome = run_serve_overload(options);
    } else if (options.workload == "diurnal-replay") {
      outcome = run_diurnal_replay(options);
    } else if (options.workload == "plan-k16") {
      outcome = run_plan_k16(options);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("fingerprint: %s\n", outcome.fingerprint.c_str());
  print_result(&outcome);
  std::fflush(stdout);
  return outcome.checks.failed == 0 ? 0 : 1;
}
