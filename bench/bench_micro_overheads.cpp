// Section III-C overhead claims, as google-benchmark microbenchmarks:
//   * "computing one convolution requires 20 us" (FFT path),
//   * "it takes less than 30 us" to determine the operating frequency once
//     equivalent distributions are cached (binary search on average VP),
//   * arrival-instant decisions pay n convolutions — here the cost of the
//     first decision at a (start bin, depth), after which the model's
//     residual chain cache serves them (BM_ArrivalDecision).
#include <benchmark/benchmark.h>

#include "dvfs/equivalent_queue.h"
#include "dvfs/policies.h"
#include "dvfs/synthetic_workload.h"
#include "stats/fft.h"

namespace eprons {
namespace {

const ServiceModel& shared_model() {
  static const ServiceModel model = [] {
    Rng rng(1);
    SyntheticWorkloadConfig config;
    config.samples = 50000;
    config.bins = 512;  // the paper-scale PDF resolution
    return make_search_service_model(config, rng);
  }();
  return model;
}

// `depth` requests with deadlines 25, 27, 29, ... ms and 2 ms of slack.
std::vector<QueuedRequest> staggered_queue(std::size_t depth) {
  std::vector<QueuedRequest> queue(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    queue[i].id = static_cast<RequestId>(i);
    queue[i].deadline_server = ms(25.0) + ms(2.0) * static_cast<double>(i);
    queue[i].deadline_with_slack = queue[i].deadline_server + ms(2.0);
  }
  return queue;
}

void BM_FftConvolution(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> a(n), b(n);
  for (double& x : a) x = rng.uniform();
  for (double& x : b) x = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(convolve(a, b));
  }
}
BENCHMARK(BM_FftConvolution)->Arg(256)->Arg(512)->Arg(1024);

void BM_FftConvolutionCachedSpectrum(benchmark::State& state) {
  // The DVFS layer's case: one operand is the work PDF, whose spectrum the
  // ServiceModel caches, so a convolution is one forward + one inverse.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> a(n), b(n);
  for (double& x : a) x = rng.uniform();
  for (double& x : b) x = rng.uniform();
  const Spectrum b_spectrum =
      real_spectrum(b, fft_convolution_size(a.size(), b.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(convolve(a, b_spectrum, b.size()));
  }
}
BENCHMARK(BM_FftConvolutionCachedSpectrum)->Arg(256)->Arg(512)->Arg(1024);

void BM_EquivalentQueueDeparture(benchmark::State& state) {
  // Departure instants hit the fresh-convolution cache: near-zero cost.
  const ServiceModel& model = shared_model();
  const auto depth = static_cast<std::size_t>(state.range(0));
  model.fresh_convolution(depth);  // warm the cache
  for (auto _ : state) {
    EquivalentQueue q(&model, depth, 0.0);
    benchmark::DoNotOptimize(q.at(depth - 1).size());
  }
}
BENCHMARK(BM_EquivalentQueueDeparture)->Arg(1)->Arg(4)->Arg(8);

void BM_EquivalentQueueArrival(benchmark::State& state) {
  // The reference chain at an arrival instant: n convolutions (paper
  // section III-C), which a decision now pays only on a residual cache
  // miss. at() builds them whatever the cache holds.
  const ServiceModel& model = shared_model();
  const auto depth = static_cast<std::size_t>(state.range(0));
  const Work done = model.work().mean() / 2.0;
  for (auto _ : state) {
    EquivalentQueue q(&model, depth, done);
    benchmark::DoNotOptimize(q.at(depth - 1).size());
  }
}
BENCHMARK(BM_EquivalentQueueArrival)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ArrivalDecision(benchmark::State& state) {
  // An arrival-instant EPRONS-Server decision (head partly served) on a
  // warm residual chain cache: offsets and CDF lookups, no convolution.
  const ServiceModel& model = shared_model();
  StatisticalPolicy policy(&model);
  const Work done = model.work().mean() / 2.0;
  const std::vector<QueuedRequest> queue =
      staggered_queue(static_cast<std::size_t>(state.range(0)));
  const std::span<const QueuedRequest> view(queue.data(), queue.size());
  policy.select_frequency(0.0, view, done);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select_frequency(0.0, view, done));
  }
}
BENCHMARK(BM_ArrivalDecision)->Arg(2)->Arg(4)->Arg(8);

void BM_FrequencyDecision(benchmark::State& state) {
  // The <30 us claim: selecting the frequency by binary search on the
  // average VP, with equivalent distributions already available.
  const ServiceModel& model = shared_model();
  StatisticalPolicy policy(&model);
  const auto depth = static_cast<std::size_t>(state.range(0));
  model.fresh_convolution(depth);
  const std::vector<QueuedRequest> queue = staggered_queue(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select_frequency(
        0.0, std::span<const QueuedRequest>(queue.data(), queue.size()),
        0.0));
  }
}
BENCHMARK(BM_FrequencyDecision)->Arg(1)->Arg(4)->Arg(8);

void BM_RubikDecision(benchmark::State& state) {
  const ServiceModel& model = shared_model();
  StatisticalPolicy policy(
      &model, {.average_vp = false, .edf = false, .use_network_slack = false});
  const auto depth = static_cast<std::size_t>(state.range(0));
  model.fresh_convolution(depth);
  std::vector<QueuedRequest> queue(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    queue[i].deadline_server = ms(25.0) + ms(2.0) * static_cast<double>(i);
    queue[i].deadline_with_slack = queue[i].deadline_server;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select_frequency(
        0.0, std::span<const QueuedRequest>(queue.data(), queue.size()),
        0.0));
  }
}
BENCHMARK(BM_RubikDecision)->Arg(4);

}  // namespace
}  // namespace eprons

BENCHMARK_MAIN();
