// Fig. 1: link utilization vs. network latency — the latency knee.
//
// The paper measured the average latency of search queries against link
// utilization: "well behaved at low link utilization", then beyond a knee
// "the latency grows quickly from 139 us to 11.981 ms".
//
// We sweep utilization on a 6-hop inter-pod fat-tree path (the query
// request path) and report the mean and tail of the sampled latency.
#include "bench_common.h"
#include "net/link_latency.h"
#include "sim/metrics.h"
#include "stats/percentile.h"
#include "util/rng.h"

using namespace eprons;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  bench::print_header(
      "Fig. 1 — utilization vs network latency (knee)",
      "flat ~139 us at low utilization; ~11.98 ms past the knee");

  const LinkLatencyModel model;  // 1 Gbps, Fig. 1 calibration
  const int hops = 6;            // inter-pod request path
  Rng rng(1);

  // The paper loads one link of the path (the measured link); the rest of
  // the path stays lightly utilized. No elephant trains: bursty
  // utilization 0 on every hop.
  const PreparedHop idle = model.prepare_hop(0.05, 0.0);
  auto sample_path = [&](const PreparedHop& bottleneck) {
    double total = model.sample_prepared(bottleneck, rng);
    for (int h = 1; h < hops; ++h) {
      total += model.sample_prepared(idle, rng);
    }
    return total;
  };

  Table table({"utilization_%", "mean_ms", "p50_ms", "p95_ms", "p99_ms"});
  table.set_precision(3);
  for (int pct = 0; pct <= 100; pct += 5) {
    const PreparedHop bottleneck = model.prepare_hop(pct / 100.0, 0.0);
    PercentileEstimator samples;
    for (int i = 0; i < 20000; ++i) samples.add(sample_path(bottleneck));
    const LatencyStats stats = summarize(samples);
    table.add_row({static_cast<long long>(pct), to_ms(stats.mean),
                   to_ms(stats.p50), to_ms(stats.p95), to_ms(stats.p99)});
  }
  table.print(std::cout, fmt);

  // Pin the two calibration anchors the paper quotes.
  const PreparedHop saturated = model.prepare_hop(1.0, 0.0);
  PercentileEstimator low, high;
  for (int i = 0; i < 20000; ++i) {
    low.add(sample_path(idle));
    high.add(sample_path(saturated));
  }
  std::printf("\nmeasured anchors: low-util mean %.0f us (paper 139 us), "
              "saturated mean %.2f ms (paper 11.981 ms)\n",
              low.mean(), to_ms(high.mean()));
  return 0;
}
