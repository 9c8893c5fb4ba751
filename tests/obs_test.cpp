// Tests for the observability subsystem: metrics registry semantics,
// deterministic shard merging under varying thread counts, Chrome
// trace-event JSON validity, per-epoch JSONL round-trips, and the record
// schema committed for tools/eprons_report.py.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace eprons::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / gauge semantics

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, MergesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 8000u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-2.0);
  EXPECT_EQ(g.value(), -2.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram semantics

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds everything below 1.0 (including negatives/NaN); bucket b
  // holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.99), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(1.99), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(5.0), 3u);
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(b)), b);
  }
}

TEST(Histogram, SnapshotTracksCountMinMax) {
  Histogram h;
  h.observe(5.0);
  h.observe(100.0);
  h.observe(0.25);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.min, 0.25);
  EXPECT_EQ(snap.max, 100.0);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_index(5.0)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::bucket_index(100.0)], 1u);
}

TEST(Histogram, QuantileOfSingleValueIsThatValue) {
  // The quantile is the bucket's upper bound clamped to [min, max], so a
  // one-observation histogram reports the observation at every quantile.
  Histogram h;
  h.observe(5.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.quantile(0.0), 5.0);
  EXPECT_EQ(snap.quantile(0.5), 5.0);
  EXPECT_EQ(snap.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileIsMonotone) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  double prev = 0.0;
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(snap.quantile(1.0), snap.max);
  EXPECT_GE(snap.quantile(0.0), 0.0);
}

TEST(Histogram, PercentilesMatchPerQuantileScans) {
  // percentiles() resolves all three nearest ranks in one cumulative
  // bucket pass; it must agree exactly with three separate quantile()
  // calls, which share the nearest-rank definition.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  const Percentiles p = snap.percentiles();
  EXPECT_EQ(p.p50, snap.quantile(0.50));
  EXPECT_EQ(p.p95, snap.quantile(0.95));
  EXPECT_EQ(p.p99, snap.quantile(0.99));
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
  EXPECT_LE(p.p99, snap.max);
}

TEST(Histogram, PercentilesOfSingleValueAreThatValue) {
  Histogram h;
  h.observe(42.0);
  const Percentiles p = h.snapshot().percentiles();
  EXPECT_EQ(p.p50, 42.0);
  EXPECT_EQ(p.p95, 42.0);
  EXPECT_EQ(p.p99, 42.0);
}

TEST(Histogram, PercentilesOfEmptyHistogramAreZero) {
  const Percentiles p = Histogram().snapshot().percentiles();
  EXPECT_EQ(p.p50, 0.0);
  EXPECT_EQ(p.p95, 0.0);
  EXPECT_EQ(p.p99, 0.0);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.observe(7.0);
  h.reset();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(MetricsRegistry, SameNameSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.calls");
  Counter& b = reg.counter("x.calls");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, ResetKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.calls");
  Gauge& g = reg.gauge("x.level");
  c.add(5);
  g.set(2.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  c.add(1);  // cached reference still works after reset
  EXPECT_EQ(reg.snapshot().counters.at("x.calls"), 1u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  const MetricsSnapshot snap = reg.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) names.push_back(name);
  const std::vector<std::string> expected = {"alpha", "mid", "zeta"};
  EXPECT_EQ(names, expected);
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion. The same logical workload must
// produce a bit-identical JSON snapshot for any worker count.

std::string run_sharded_workload(int threads) {
  MetricsRegistry reg;
  Counter& items = reg.counter("work.items");
  Counter& big = reg.counter("work.big_items");
  Histogram& values = reg.histogram("work.value");
  ThreadPool pool(threads);
  parallel_for(&pool, 997, [&](std::size_t i) {
    items.add();
    if (i % 7 == 0) big.add(i);
    // A fixed per-index value: which *shard* records it varies with the
    // schedule, but the merged bucket counts cannot.
    values.observe(static_cast<double>((i * 37) % 1024));
  });
  reg.gauge("work.last").set(42.0);  // serial code: deterministic
  std::ostringstream os;
  reg.snapshot().write_json(os);
  return os.str();
}

TEST(MetricsDeterminism, SnapshotBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_sharded_workload(1);
  EXPECT_EQ(run_sharded_workload(4), serial);
  EXPECT_EQ(run_sharded_workload(16), serial);
  // Sanity: the snapshot actually contains the workload's totals.
  EXPECT_NE(serial.find("\"work.items\": 997"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer

// Scans JSON structure: balanced {} / [] outside of strings.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  {
    ScopedSpan span(tracer, "noop", "test");
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(Tracer, EmitsValidCompleteEvents) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "outer", "test", "k", 3.0);
    ScopedSpan inner(tracer, "inner", "test");
  }
  ThreadPool pool(4);
  parallel_for(&pool, 8, [&](std::size_t i) {
    ScopedSpan span(tracer, "shard", "test", "shard",
                    static_cast<double>(i));
  });
  EXPECT_EQ(tracer.num_events(), 10u);

  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 3"), std::string::npos);
}

TEST(Tracer, ClearDropsEventsAndBuffersRebind) {
  Tracer tracer;
  tracer.set_enabled(true);
  { ScopedSpan span(tracer, "before", "test"); }
  EXPECT_EQ(tracer.num_events(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.num_events(), 0u);
  // The thread-local buffer cache must re-register after clear(), not
  // append into a dropped buffer.
  { ScopedSpan span(tracer, "after", "test"); }
  EXPECT_EQ(tracer.num_events(), 1u);
  std::ostringstream os;
  tracer.write_json(os);
  EXPECT_EQ(os.str().find("before"), std::string::npos);
  EXPECT_NE(os.str().find("after"), std::string::npos);
}

TEST(Tracer, TwoInstancesDoNotShareBuffers) {
  Tracer a;
  Tracer b;
  a.set_enabled(true);
  b.set_enabled(true);
  { ScopedSpan span(a, "span_a", "test"); }
  { ScopedSpan span(b, "span_b", "test"); }
  EXPECT_EQ(a.num_events(), 1u);
  EXPECT_EQ(b.num_events(), 1u);
}

// ---------------------------------------------------------------------------
// Epoch JSONL

double parse_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  return std::stod(line.substr(at + tag.size()));
}

TEST(EpochJsonl, RoundTripsEveryField) {
  EpochRecord r;
  r.source = "epoch_controller";
  r.epoch = 7;
  r.chosen_k = 2.5;
  r.feasible = true;
  r.wanted_switches = 12;
  r.actual_switches = 14;
  r.predicted_total_w = 3381.25;
  r.realized_network_w = 504.0;
  r.prediction_ratio = 1.31;
  r.slack_total_p95_us = 4200.5;
  r.slack_total_p99_us = 6100.0;
  r.server_budget_us = 25799.5;
  r.utilization = 0.3;

  const std::string line = to_jsonl(r);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_TRUE(json_balanced(line));
  EXPECT_NE(line.find("\"source\": \"epoch_controller\""), std::string::npos);
  EXPECT_NE(line.find("\"feasible\": true"), std::string::npos);
  EXPECT_EQ(parse_field(line, "epoch"), 7.0);
  EXPECT_EQ(parse_field(line, "chosen_k"), 2.5);
  EXPECT_EQ(parse_field(line, "wanted_switches"), 12.0);
  EXPECT_EQ(parse_field(line, "actual_switches"), 14.0);
  EXPECT_EQ(parse_field(line, "predicted_total_w"), 3381.25);
  EXPECT_EQ(parse_field(line, "realized_network_w"), 504.0);
  EXPECT_EQ(parse_field(line, "prediction_ratio"), 1.31);
  EXPECT_EQ(parse_field(line, "slack_total_p95_us"), 4200.5);
  EXPECT_EQ(parse_field(line, "slack_total_p99_us"), 6100.0);
  EXPECT_EQ(parse_field(line, "server_budget_us"), 25799.5);
  EXPECT_EQ(parse_field(line, "utilization"), 0.3);
  // Exact bytes: field order, separators and the %.17g number form.
  EXPECT_EQ(line,
            "{\"source\": \"epoch_controller\", \"epoch\": 7, "
            "\"chosen_k\": 2.5, \"feasible\": true, \"wanted_switches\": 12, "
            "\"actual_switches\": 14, \"predicted_total_w\": 3381.25, "
            "\"realized_network_w\": 504, "
            "\"prediction_ratio\": 1.3100000000000001, "
            "\"slack_total_p95_us\": 4200.5, \"slack_total_p99_us\": 6100, "
            "\"server_budget_us\": 25799.5, "
            "\"utilization\": 0.29999999999999999}\n");
}

TEST(EpochJsonl, FaultRecordGolden) {
  FaultRecord r;
  r.epoch = 3;
  r.failed_switches = 2;
  r.failed_links = 5;
  r.connected = true;
  r.hot_recovery = false;
  r.replanned = true;
  r.chosen_k = 1.5;
  r.k_bumped = true;
  r.woken_backups = 1;
  r.emergency_boots = 4;
  r.flows_rerouted = 17;
  r.time_to_replan_us = 2000000.0;
  r.estimated_outage_violations = 0.1;
  EXPECT_EQ(to_jsonl(r),
            "{\"source\": \"fault_recovery\", \"epoch\": 3, "
            "\"failed_switches\": 2, \"failed_links\": 5, "
            "\"connected\": true, \"hot_recovery\": false, "
            "\"replanned\": true, \"chosen_k\": 1.5, \"k_bumped\": true, "
            "\"woken_backups\": 1, \"emergency_boots\": 4, "
            "\"flows_rerouted\": 17, \"time_to_replan_us\": 2000000, "
            "\"estimated_outage_violations\": 0.10000000000000001}\n");
}

TEST(EpochJsonl, WriterStreamsOneLinePerRecord) {
  std::ostringstream os;
  JsonlWriter writer(&os);
  EpochRecord r;
  for (int i = 0; i < 3; ++i) {
    r.epoch = i;
    writer.write(r);
  }
  EXPECT_EQ(writer.records_written(), 3u);
  const std::string text = os.str();
  std::size_t lines = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    EXPECT_TRUE(json_balanced(line)) << line;
    EXPECT_EQ(parse_field(line, "epoch"), static_cast<double>(lines));
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

// tools/record_schema.json is exactly what the record declarations print.
// On drift the fresh schema lands in the build tree; copy it over the
// committed file when the record change is intended.
TEST(RecordSchema, CommittedFileMatchesDeclarations) {
  std::ostringstream committed;
  committed << std::ifstream(EPRONS_RECORD_SCHEMA).rdbuf();
  const std::string fresh = record_schema_json();
  if (committed.str() != fresh) {
    std::ofstream(EPRONS_RECORD_SCHEMA_OUT) << fresh;
    ADD_FAILURE() << EPRONS_RECORD_SCHEMA << " is stale; the declarations "
                  << "print the schema now in " << EPRONS_RECORD_SCHEMA_OUT;
  }
}

}  // namespace
}  // namespace eprons::obs
