// Unit tests for src/flow: flow sets, scaled demand, generators, and the
// 90th-percentile demand predictor.
#include <gtest/gtest.h>

#include "flow/demand_predictor.h"
#include "flow/flow.h"
#include "util/rng.h"

namespace eprons {
namespace {

TEST(Flow, ScaledDemandOnlyInflatesLatencySensitive) {
  Flow sensitive{0, 0, 1, 20.0, FlowClass::LatencySensitive};
  Flow tolerant{1, 0, 1, 900.0, FlowClass::LatencyTolerant};
  EXPECT_DOUBLE_EQ(sensitive.scaled_demand(3.0), 60.0);
  EXPECT_DOUBLE_EQ(tolerant.scaled_demand(3.0), 900.0);
}

TEST(FlowSet, AddAndTotals) {
  FlowSet flows;
  flows.add(0, 1, 100.0, FlowClass::LatencyTolerant);
  flows.add(1, 2, 20.0, FlowClass::LatencySensitive);
  EXPECT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows.total_demand(1.0), 120.0);
  EXPECT_DOUBLE_EQ(flows.total_demand(2.0), 140.0);
  EXPECT_EQ(flows.count(FlowClass::LatencySensitive), 1u);
}

TEST(FlowSet, RejectsBadFlows) {
  FlowSet flows;
  EXPECT_THROW(flows.add(3, 3, 1.0, FlowClass::LatencyTolerant),
               std::invalid_argument);
  EXPECT_THROW(flows.add(0, 1, -1.0, FlowClass::LatencyTolerant),
               std::invalid_argument);
}

TEST(FlowGen, BackgroundFlowsRespectConfig) {
  Rng rng(31);
  FlowGenConfig config;
  const FlowSet flows = make_background_flows(config, 10, 0.2, 0.1, rng);
  EXPECT_EQ(flows.size(), 10u);
  for (const Flow& f : flows.flows()) {
    EXPECT_EQ(f.cls, FlowClass::LatencyTolerant);
    EXPECT_NE(f.src_host, f.dst_host);
    EXPECT_GE(f.src_host, 0);
    EXPECT_LT(f.src_host, 16);
    EXPECT_GE(f.demand, 0.2 * 1000.0 * 0.9 - 1e-9);
    EXPECT_LE(f.demand, 0.2 * 1000.0 * 1.1 + 1e-9);
  }
}

TEST(FlowGen, QueryFlowsFormPartitionAggregatePattern) {
  FlowSet flows;
  flows.add(0, 1, 100.0, FlowClass::LatencyTolerant);  // background first
  const QueryFlows ids =
      add_query_flows(flows, /*aggregator=*/3, /*num_hosts=*/16, 5.0, 20.0);
  // Per host in order, a request then a reply, after the background flow;
  // the aggregator's slots stay empty.
  ASSERT_EQ(ids.request.size(), 16u);
  ASSERT_EQ(ids.reply.size(), 16u);
  EXPECT_EQ(ids.request[3], kInvalidFlow);
  EXPECT_EQ(ids.reply[3], kInvalidFlow);
  EXPECT_EQ(ids.request[0], 1);
  EXPECT_EQ(ids.reply[0], 2);
  EXPECT_EQ(ids.request[4], 7);
  for (int h = 0; h < 16; ++h) {
    if (h == 3) continue;
    const Flow& request = flows[static_cast<std::size_t>(ids.request[h])];
    const Flow& reply = flows[static_cast<std::size_t>(ids.reply[h])];
    EXPECT_EQ(request.src_host, 3);
    EXPECT_EQ(request.dst_host, h);
    EXPECT_EQ(reply.src_host, h);
    EXPECT_EQ(reply.dst_host, 3);
  }
  // 15 ISNs, a request and a reply each, after the background flow.
  EXPECT_EQ(flows.size(), 31u);
  EXPECT_EQ(flows.count(FlowClass::LatencySensitive), 30u);
  int requests = 0, replies = 0;
  for (const Flow& f : flows.flows()) {
    if (f.src_host == 3) {
      ++requests;
      EXPECT_DOUBLE_EQ(f.demand, 5.0);
    }
    if (f.dst_host == 3) {
      ++replies;
      EXPECT_DOUBLE_EQ(f.demand, 20.0);
    }
  }
  EXPECT_EQ(requests, 15);
  EXPECT_EQ(replies, 15);
}

TEST(DemandPredictor, PredictsConfiguredPercentile) {
  DemandPredictor predictor;  // default 90th percentile
  for (int i = 1; i <= 100; ++i) {
    predictor.add_sample(7, static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(predictor.predict(7), 90.0);
}

TEST(DemandPredictor, UnknownFlowPredictsZero) {
  DemandPredictor predictor;
  EXPECT_DOUBLE_EQ(predictor.predict(99), 0.0);
}

TEST(DemandPredictor, WindowEvictsOldEpoch) {
  DemandPredictorConfig config;
  config.window = 10;
  DemandPredictor predictor(config);
  for (int i = 0; i < 10; ++i) predictor.add_sample(1, 1000.0);
  for (int i = 0; i < 10; ++i) predictor.add_sample(1, 5.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 5.0);
  EXPECT_EQ(predictor.sample_count(1), 10u);
}

TEST(DemandPredictor, ForgetDropsState) {
  DemandPredictor predictor;
  predictor.add_sample(2, 100.0);
  predictor.forget(2);
  EXPECT_DOUBLE_EQ(predictor.predict(2), 0.0);
  EXPECT_EQ(predictor.sample_count(2), 0u);
}

TEST(DemandPredictor, TracksFlowsIndependently) {
  DemandPredictor predictor;
  predictor.add_sample(1, 10.0);
  predictor.add_sample(2, 99.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 10.0);
  EXPECT_DOUBLE_EQ(predictor.predict(2), 99.0);
}

}  // namespace
}  // namespace eprons
