// Unit + property tests for src/net: the Fig. 1 utilization-latency knee,
// directed link load accounting, and path latency composition.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/link_latency.h"
#include "net/link_utilization.h"
#include "net/path_latency.h"
#include "topo/fattree.h"
#include "util/rng.h"

namespace eprons {
namespace {

TEST(LinkLatency, PacketServiceTime) {
  LinkLatencyConfig config;  // 1 Gbps, 1500 B
  const LinkLatencyModel model(config);
  EXPECT_NEAR(model.packet_service_time(), 12.0, 1e-9);  // 12000 bits / 1000 Mbps
}

TEST(LinkLatency, FlatAtLowUtilization) {
  const LinkLatencyModel model;
  // The paper's observation: moving from light to medium utilization barely
  // changes latency.
  const SimTime l20 = model.mean_latency(0.20);
  const SimTime l50 = model.mean_latency(0.50);
  EXPECT_LT((l50 - l20) / l20, 0.5);
}

TEST(LinkLatency, KneeBeyondHighUtilization) {
  const LinkLatencyModel model;
  // Past the knee, latency explodes by orders of magnitude (139 us -> ~12 ms
  // in Fig. 1).
  const SimTime low = model.mean_latency(0.20);
  const SimTime saturated = model.mean_latency(0.999);
  EXPECT_GT(saturated / low, 50.0);
}

TEST(LinkLatency, MonotoneInUtilization) {
  const LinkLatencyModel model;
  SimTime prev = 0.0;
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    const SimTime l = model.mean_latency(u);
    EXPECT_GE(l, prev - 1e-12) << "u=" << u;
    prev = l;
  }
}

TEST(LinkLatency, BufferCapsLatency) {
  const LinkLatencyModel model;
  EXPECT_LE(model.mean_latency(1.0), model.max_latency());
  EXPECT_NEAR(model.max_latency(),
              model.config().base_latency_us + 12.0 * 1000.0, 1e-9);
}

TEST(LinkLatency, SamplesBoundedAndMeanConsistent) {
  const LinkLatencyModel model;
  Rng rng(41);
  double total = 0.0;
  const int n = 100000;
  const PreparedHop hop = model.prepare_hop(0.5, 0.0);
  for (int i = 0; i < n; ++i) {
    const SimTime s = model.sample_prepared(hop, rng);
    EXPECT_GE(s, model.config().base_latency_us);
    EXPECT_LE(s, model.max_latency() + 1e-9);
    total += s;
  }
  EXPECT_NEAR(total / n, model.mean_latency(0.5), 1.0);
}

TEST(LinkLatency, RejectsBadConfig) {
  LinkLatencyConfig bad;
  bad.capacity_mbps = 0.0;
  EXPECT_THROW(LinkLatencyModel{bad}, std::invalid_argument);
}

TEST(LinkLatency, RejectsNanOrNegativeTermsAtConstruction) {
  // A NaN burst_coeff used to turn the burst term off silently (p_burst > 0
  // is false for NaN); every sampling constant is now checked once, here.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Field = double LinkLatencyConfig::*;
  for (const Field field :
       {&LinkLatencyConfig::base_latency_us, &LinkLatencyConfig::burst_len_us,
        &LinkLatencyConfig::burst_coeff}) {
    for (const double value : {nan, -1e-9, -1.0}) {
      LinkLatencyConfig bad;
      bad.*field = value;
      EXPECT_THROW(LinkLatencyModel{bad}, std::invalid_argument) << value;
    }
    LinkLatencyConfig zero;
    zero.*field = 0.0;
    EXPECT_NO_THROW(LinkLatencyModel{zero});
  }
  for (const double knee : {nan, -0.01, 1.01}) {
    LinkLatencyConfig bad;
    bad.knee_utilization = knee;
    EXPECT_THROW(LinkLatencyModel{bad}, std::invalid_argument) << knee;
  }
  for (const double knee : {0.0, 0.5, 1.0}) {
    LinkLatencyConfig edge;
    edge.knee_utilization = knee;
    EXPECT_NO_THROW(LinkLatencyModel{edge}) << knee;
  }
  EXPECT_NO_THROW(LinkLatencyModel{LinkLatencyConfig{}});
}

// Property sweep: sampling never under-runs base latency at any utilization.
class LinkLatencySample : public ::testing::TestWithParam<double> {};

TEST_P(LinkLatencySample, AlwaysAtLeastBase) {
  const LinkLatencyModel model;
  const PreparedHop hop = model.prepare_hop(GetParam(), 0.0);
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample_prepared(hop, rng), model.config().base_latency_us);
  }
}

INSTANTIATE_TEST_SUITE_P(Utilizations, LinkLatencySample,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.95, 1.0,
                                           1.5));

TEST(LinkUtilization, DirectedAccounting) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path path = ft.all_paths(0, 1)[0];  // h0 -> e -> h1
  load.add_path_load(path, 500.0);
  EXPECT_DOUBLE_EQ(load.directed_load(path[0], path[1]), 500.0);
  // Reverse direction untouched.
  EXPECT_DOUBLE_EQ(load.directed_load(path[1], path[0]), 0.0);
  EXPECT_DOUBLE_EQ(load.directed_utilizations(path[0], path[1]).utilization,
                   0.5);
}

TEST(LinkUtilization, AccumulatesMultipleFlows) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const Path path = ft.all_paths(0, 1)[0];
  load.add_path_load(path, 300.0);
  load.add_path_load(path, 200.0);
  EXPECT_DOUBLE_EQ(load.directed_load(path[0], path[1]), 500.0);
}

TEST(LinkUtilization, ThrowsOnNonAdjacent) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  EXPECT_THROW(load.directed_load(ft.host(0), ft.host(1)),
               std::invalid_argument);
}

TEST(PathLatency, SumsPerHopMeans) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const LinkLatencyModel link_model;
  PathLatencyEstimator est(&load, link_model);
  const Path path = ft.all_paths(0, 15)[0];  // 6 hops
  const SimTime idle = est.mean_latency(path);
  EXPECT_NEAR(idle, 6.0 * link_model.mean_latency(0.0), 1e-9);
}

TEST(PathLatency, HotPathSlowerThanColdPath) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const auto paths = ft.all_paths(0, 15);
  load.add_path_load(paths[0], 940.0);
  PathLatencyEstimator est(&load, LinkLatencyModel{});
  EXPECT_GT(est.mean_latency(paths[0]), est.mean_latency(paths[3]));
}

TEST(PathLatency, SampleLatencyDrawsThePreparedBits) {
  // Elephants load links past the knee (burst term) with a duty cycle
  // (collision term), one link past capacity: every term of the per-hop
  // draw fires. From equal seeds, sampling a path and sampling its
  // prepared hops return the same bits draw for draw and leave both
  // streams in the same state.
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  const auto hot = ft.all_paths(0, 15);
  load.add_path_load(hot[0], 820.0, /*bursty=*/true);
  load.add_path_load(hot[1], 300.0, /*bursty=*/true);
  load.add_path_load(hot[2], 930.0);
  load.add_path_load(ft.all_paths(4, 6)[0], 760.0, /*bursty=*/true);
  const PathLatencyEstimator est(&load, LinkLatencyModel{});
  bool burst = false;
  bool collision = false;
  bool saturated = false;
  std::vector<PreparedHop> hops;
  for (const auto& [src, dst] :
       {std::pair{0, 15}, std::pair{15, 0}, std::pair{4, 6}, std::pair{1, 14},
        std::pair{0, 1}}) {
    for (const Path& path : ft.all_paths(src, dst)) {
      est.prepare(path, &hops);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        burst = burst || hops[i].p_burst > 0.0;
        collision = collision || hops[i].bursty > 0.0;
        saturated = saturated ||
                    load.directed_utilizations(path[i], path[i + 1])
                            .utilization > 1.0;
      }
      Rng a(src * 31 + dst);
      Rng b(src * 31 + dst);
      for (int draw = 0; draw < 2000; ++draw) {
        ASSERT_EQ(est.sample_latency(path, a), est.sample_prepared(hops, b))
            << src << "->" << dst << " draw " << draw;
      }
      EXPECT_EQ(a.state(), b.state()) << src << "->" << dst;
    }
  }
  EXPECT_TRUE(burst);
  EXPECT_TRUE(collision);
  EXPECT_TRUE(saturated);
}

TEST(PathLatency, SamplesBoundedByMax) {
  const FatTree ft(4);
  LinkUtilization load(&ft.graph());
  PathLatencyEstimator est(&load, LinkLatencyModel{});
  const Path path = ft.all_paths(0, 2)[0];
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(est.sample_latency(path, rng), est.max_latency(path) + 1e-9);
  }
}

}  // namespace
}  // namespace eprons
