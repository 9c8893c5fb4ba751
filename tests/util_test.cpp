// Unit tests for src/util: RNG determinism and distributions, string
// helpers, CLI parsing, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/rng_lanes.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace eprons {

// Test seam on UniformWindow (a friend): regenerates the window's next
// round now and exposes the round's slots, so a test can plant a draw.
struct UniformWindowProbe {
  static double* refill(UniformWindow& window) {
    window.refill();
    return window.round_.get();
  }
  static double* slots(UniformWindow& window) { return window.round_.get(); }
};

namespace {

TEST(Types, WorkTimeConversionRoundTrips) {
  const Work w = 2.5e6;  // 2.5 Mcycles
  const Freq f = 2.0;    // GHz
  const SimTime t = work_to_time(w, f);
  EXPECT_DOUBLE_EQ(t, 1250.0);  // 2.5e6 cycles at 2000 cycles/us
  EXPECT_DOUBLE_EQ(time_to_work(t, f), w);
}

TEST(Types, UnitHelpers) {
  EXPECT_DOUBLE_EQ(ms(30.0), 30000.0);
  EXPECT_DOUBLE_EQ(sec(2.0), 2e6);
  EXPECT_DOUBLE_EQ(to_ms(5000.0), 5.0);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // Child and parent streams must not coincide.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 2);
  // Splitting twice from the same original seed is deterministic.
  Rng parent2(7);
  Rng child2 = parent2.split();
  Rng child_ref = Rng(7).split();
  EXPECT_EQ(child2.next(), child_ref.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  // hi == lo - 1 used to wrap the span to 0 and die on a modulo by zero;
  // any other hi < lo drew values outside the range. Both throw now, and
  // the throw leaves the stream untouched.
  Rng rng(11);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(0, -1), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(3, -7), std::invalid_argument);
  Rng fresh(11);
  EXPECT_EQ(rng.uniform_int(2, 5), fresh.uniform_int(2, 5));
  // A one-value range still takes one draw.
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(fresh.uniform_int(4, 4), 4);
  EXPECT_EQ(rng(), fresh());

  // The full int64 range also wraps the span to 0: every draw is in range.
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Rng wide(13);
  Rng raw(13);
  EXPECT_EQ(wide.uniform_int(lo, hi), static_cast<std::int64_t>(raw()));
  // A span above INT64_MAX stays within its bounds.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = wide.uniform_int(lo + 1, hi);
    EXPECT_GE(v, lo + 1);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double total = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total += rng.exponential(3.0);
  EXPECT_NEAR(total / n, 3.0, 0.05);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(13);
  double total = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    total += x;
    sq += x * x;
  }
  const double mean = total / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, DrawNormalsMatchSuccessiveCalls) {
  // draw_normals(n) then evaluating the draws must give the bits of n
  // successive normal()/lognormal() calls — whole, one by one, or in
  // ranges that start on either half of a Box–Muller pair — and leave the
  // generator where those calls leave it, cached variate included.
  for (const bool cached : {false, true}) {
    for (const std::size_t count :
         {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 1000u}) {
      const std::string label = "count=" + std::to_string(count) +
                                " cached=" + std::to_string(cached);
      for (const bool log : {false, true}) {
        Rng serial(41 + count);
        Rng bulk(41 + count);
        if (cached) {
          serial.normal();  // leaves the sine half cached
          bulk.normal();
        }
        std::vector<double> expected(count);
        for (double& x : expected) {
          x = log ? serial.lognormal(0.5, 0.2) : serial.normal(3.0, 1.5);
        }
        NormalDraws draws;
        bulk.draw_normals(count, &draws);
        ASSERT_EQ(draws.size(), count) << label;
        const auto eval = [&](std::size_t first, std::size_t n, double* out) {
          if (log) {
            draws.lognormal(first, n, 0.5, 0.2, out);
          } else {
            draws.normal(first, n, 3.0, 1.5, out);
          }
        };
        std::vector<double> whole(count);
        eval(0, count, whole.data());
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(whole[i], expected[i]) << label << " i=" << i;
          double one;
          eval(i, 1, &one);
          EXPECT_EQ(one, expected[i]) << label << " single i=" << i;
        }
        for (std::size_t first = 0; first < count; first += 3) {
          double part[3];
          const std::size_t n = std::min<std::size_t>(3, count - first);
          eval(first, n, part);
          for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(part[j], expected[first + j])
                << label << " chunk i=" << first + j;
          }
        }
        // The generators continue identically: a normal() reads the cached
        // half (or draws a fresh pair), then the raw stream.
        EXPECT_EQ(bulk.normal(), serial.normal()) << label;
        EXPECT_EQ(bulk.normal(), serial.normal()) << label;
        for (int i = 0; i < 4; ++i) EXPECT_EQ(bulk.next(), serial.next());
      }
    }
  }
  // One NormalDraws reused across calls, as EpochController keeps it: each
  // call overwrites the last whole. An odd number of fresh variates leaves
  // a sine half cached, which leads the next call (4, 6, 3 and 1 here);
  // 1000 follows a call that had a cached lead and has none; counts shrink
  // as well as grow.
  Rng serial(97);
  Rng bulk(97);
  NormalDraws draws;
  for (const std::size_t count :
       {5u, 4u, 6u, 3u, 1000u, 2u, 7u, 0u, 1u, 0u, 9u, 8u}) {
    bulk.draw_normals(count, &draws);
    ASSERT_EQ(draws.size(), count);
    std::vector<double> got(count);
    draws.normal(0, count, 3.0, 1.5, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], serial.normal(3.0, 1.5))
          << "reused, count=" << count << " i=" << i;
    }
  }
  EXPECT_EQ(bulk.normal(), serial.normal());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bulk.next(), serial.next());
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge) {
  Rng rng(17);
  for (const double mean : {2.0, 80.0}) {
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.05) << "mean=" << mean;
  }
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.3, 1.0, 50.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 50.0 + 1e-9);
  }
}

// The bodies util/simd.h says this build and host can execute.
std::vector<SimdBody> runnable_bodies() {
  std::vector<SimdBody> bodies;
  for (const SimdBody body :
       {SimdBody::kBaseline, SimdBody::kAvx2, SimdBody::kAvx512}) {
    if (simd_body_runs(body)) bodies.push_back(body);
  }
  return bodies;
}

// The scalar stream the lanes must reproduce: generator `stream` of the
// split() family of `seed`, as RngCheckpoints defines it.
Rng split_stream(std::uint64_t seed, std::size_t stream) {
  Rng base(seed);
  Rng out = base.split();
  for (std::size_t s = 0; s < stream; ++s) out = base.split();
  return out;
}

TEST(RngLanes, EveryBodyMatchesScalarStream) {
  EXPECT_TRUE(simd_body_runs(SimdBody::kBaseline));
  EXPECT_TRUE(simd_body_runs(host_simd_body()));
  constexpr std::size_t kStride = RngCheckpoints::kStride;
  constexpr std::size_t kRound = UniformWindow::kRound;
  for (const SimdBody body : runnable_bodies()) {
    std::string label = "body ";
    label += std::to_string(static_cast<int>(body));
    // uniform_lanes from arbitrary states: lane i is the scalar stream
    // started at states[i], and next() >> 11 survives the conversion.
    Rng walker(0xfeedULL);
    Rng::State starts[kUniformLanes];
    std::vector<Rng> scalar;
    for (std::size_t i = 0; i < kUniformLanes; ++i) {
      walker.discard(37 * i + 5);
      starts[i] = walker.state();
      scalar.push_back(walker);
    }
    std::vector<double> lanes(kUniformLanes * 24);
    uniform_lanes(body, starts, 24, lanes.data());
    for (std::size_t i = 0; i < kUniformLanes; ++i) {
      for (std::size_t t = 0; t < 24; ++t) {
        const std::uint64_t bits = scalar[i].next() >> 11;
        EXPECT_EQ(lanes[i * 24 + t], static_cast<double>(bits) * 0x1.0p-53)
            << label << " lane " << i << " step " << t;
      }
    }
    EXPECT_THROW(uniform_lanes(body, starts, 12, lanes.data()),
                 std::invalid_argument);

    // Windows over whole streams: single draws, then column reads whose
    // shapes straddle checkpoint (every kStride draws) and round (every
    // kRound draws) boundaries.
    for (const std::uint64_t seed : {1ull, 99ull, 2024ull}) {
      const RngCheckpoints table(seed, 8);
      for (const std::size_t stream : {0u, 3u, 7u}) {
        UniformWindow window(&table, stream, body);
        Rng rng = split_stream(seed, stream);
        const std::string at = label + " seed " + std::to_string(seed) +
                               " stream " + std::to_string(stream);
        for (std::size_t k = 0; k < kStride + 3; ++k) {
          ASSERT_EQ(window.next(), rng.uniform()) << at << " draw " << k;
        }
        std::vector<double> rows(kRound + 64);
        while (rows.size() > 30) {
          const std::size_t cols = 11;
          const std::size_t n = rows.size() / cols / 2;
          std::vector<double*> dst(cols);
          for (std::size_t c = 0; c < cols; ++c) dst[c] = rows.data() + c * n;
          window.take_columns<false>(n, cols, dst.data());
          for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
              ASSERT_EQ(dst[c][r], rng.uniform()) << at;
            }
          }
          rows.resize(n * cols);
        }
        EXPECT_EQ(window.next(), rng.uniform()) << at;
      }
    }
  }
}

TEST(UniformWindow, ZeroRejectedAcrossRefill) {
  // A uniform() of exactly 0.0 has probability 2^-53, so the test plants
  // them: at the last slot of round 0 — the slot before a refill — inside
  // a read that crosses into round 1, and in the middle of round 1 under
  // a block read. The consumed sequence must be the scalar loops': a
  // nonzero read redraws a 0.0 (`do u = uniform(); while (u == 0.0)`), a
  // plain read keeps it.
  constexpr std::size_t kRound = UniformWindow::kRound;
  for (const SimdBody body : runnable_bodies()) {
    std::string label = "body ";
    label += std::to_string(static_cast<int>(body));
    const RngCheckpoints table(7, 2);
    UniformWindow window(&table, 1, body);
    Rng rng = split_stream(7, 1);
    std::vector<double> raw(3 * kRound);
    for (double& u : raw) u = rng.uniform();

    double* round0 = UniformWindowProbe::refill(window);
    round0[100] = raw[100] = 0.0;
    round0[kRound - 1] = raw[kRound - 1] = 0.0;
    std::size_t pos = 0;
    const auto expect_read = [&](bool nonzero, std::size_t rows,
                                 std::size_t cols) {
      std::vector<double> out(rows * cols);
      std::vector<double*> dst(cols);
      for (std::size_t c = 0; c < cols; ++c) dst[c] = out.data() + c * rows;
      if (nonzero) {
        window.take_columns<true>(rows, cols, dst.data());
      } else {
        window.take_columns<false>(rows, cols, dst.data());
      }
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          double u = raw[pos++];
          while (nonzero && u == 0.0) u = raw[pos++];
          ASSERT_EQ(dst[c][r], u) << label << " row " << r << " col " << c
                                  << " nonzero " << nonzero;
        }
      }
    };
    expect_read(false, kRound - 6, 1);  // keeps the 0.0 at slot 100
    EXPECT_EQ(pos, kRound - 6);
    expect_read(true, 2, 5);  // rejects slot kRound - 1, refills, reads on
    EXPECT_EQ(pos, kRound + 5);
    double* round1 = UniformWindowProbe::slots(window);
    round1[kRound / 2] = raw[kRound + kRound / 2] = 0.0;
    while (pos < kRound + kRound / 2 + 400) expect_read(true, 30, 11);
    expect_read(false, 7, 3);
    EXPECT_EQ(window.next(), raw[pos]) << label;
  }
}

TEST(RngCheckpoints, ConcurrentReadersMatchSerialFill) {
  // Readers on four threads grow the table past each other, out of order;
  // every state they read is the scalar stream's at that draw.
  constexpr std::size_t kStride = RngCheckpoints::kStride;
  const RngCheckpoints table(31, 4);
  EXPECT_EQ(table.size(), 0u);  // nothing is computed before a read
  std::vector<std::vector<Rng::State>> expected(4);
  for (std::size_t stream = 0; stream < 4; ++stream) {
    Rng rng = split_stream(31, stream);
    for (std::size_t c = 0; c < 40; ++c) {
      expected[stream].push_back(rng.state());
      rng.discard(kStride);
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t k = 0; k < 40; ++k) {
        const std::size_t stream = (t + k) % 4;
        const std::size_t first = (k * 7 + t * 3) % 32;
        Rng::State got[8];
        table.states(stream, first, 8, got);
        for (std::size_t i = 0; i < 8; ++i) {
          if (got[i] != expected[stream][first + i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(table.size(), 4u * 40u);
  EXPECT_THROW(table.states(4, 0, 1, nullptr), std::out_of_range);
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  x y\t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseDoubleRejectsTrailingGarbage) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double(" 42 ", v));
  EXPECT_FALSE(parse_double("3.5x", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Strings, ParseIntBasics) {
  long long v = 0;
  EXPECT_TRUE(parse_int("-17", v));
  EXPECT_EQ(v, -17);
  EXPECT_FALSE(parse_int("1.5", v));
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(strformat("k=%d u=%.2f", 3, 0.5), "k=3 u=0.50");
}

TEST(Cli, ParsesAllFlagForms) {
  const char* argv[] = {"prog", "--util=0.3", "--k=4", "--csv", "pos1"};
  Cli cli(5, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("util", 0.0), 0.3);
  EXPECT_EQ(cli.get_int("k", 0), 4);
  EXPECT_TRUE(cli.has_flag("csv"));
  EXPECT_FALSE(cli.has_flag("absent"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksAndUnused) {
  const char* argv[] = {"prog", "--typo=1"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("nodes", 16), 16);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), 22.0});
  std::ostringstream pretty, csv;
  t.print(pretty);
  t.print_csv(csv);
  EXPECT_NE(pretty.str().find("alpha"), std::string::npos);
  EXPECT_NE(csv.str().find("alpha,1.500"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialFields) {
  Table t({"x"});
  t.add_row({std::string("a,b")});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, IntegerCellsPrintWithoutDecimals) {
  Table t({"n"});
  t.add_row({static_cast<long long>(42)});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("42\n"), std::string::npos);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(&pool, visits.size(),
               [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool touched = false;
  parallel_for(&pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for(nullptr, 5,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(&pool, 100,
                            [&](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  std::atomic<int> count{0};
  parallel_for(&pool, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, OneThreadMatchesManyThreads) {
  // The determinism contract: per-index results never depend on the
  // worker count, only on the index.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(512);
    parallel_for(&pool, out.size(), [&](std::size_t i) {
      Rng rng(1000 + i);
      out[i] = rng.uniform() + rng.exponential(2.0);
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // An inner parallel_for issued from a pool worker must not deadlock:
  // the caller drains its own batch.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(&pool, 4, [&](std::size_t) {
    parallel_for(&pool, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(Cli, RuntimeFromCliParsesThreadCounts) {
  const char* pinned[] = {"prog", "--threads=3"};
  EXPECT_EQ(runtime_from_cli(Cli(2, pinned)).threads, 3);
  const char* absent[] = {"prog"};
  EXPECT_EQ(runtime_from_cli(Cli(1, absent)).threads, 1);
  const char* bare[] = {"prog", "--threads"};
  EXPECT_GE(runtime_from_cli(Cli(2, bare)).threads, 1);
}

TEST(Cli, TableFormatFromCliPrefersJson) {
  const char* both[] = {"prog", "--csv", "--json"};
  EXPECT_EQ(table_format_from_cli(Cli(3, both)), TableFormat::kJson);
  const char* csv[] = {"prog", "--csv"};
  EXPECT_EQ(table_format_from_cli(Cli(2, csv)), TableFormat::kCsv);
  const char* none[] = {"prog"};
  EXPECT_EQ(table_format_from_cli(Cli(1, none)), TableFormat::kPretty);
}

TEST(Table, JsonEmitsOneObjectPerRow) {
  Table t({"name", "value"});
  t.add_row({std::string("a\"b"), 1.5});
  t.add_row({static_cast<long long>(7), 2.0});
  std::ostringstream os;
  t.print(os, TableFormat::kJson);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"name\": \"a\\\"b\", \"value\": 1.5}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": 7, \"value\": 2}"), std::string::npos);
}

TEST(Table, DividerSpansFullRowWidth) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  std::ostringstream os;
  t.print(os);
  std::istringstream lines(os.str());
  std::string header, divider;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, divider));
  EXPECT_EQ(divider.size(), header.size());
  EXPECT_EQ(divider.find_first_not_of('-'), std::string::npos);
}

TEST(Strings, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("a\bb\fc"), "a\\bb\\fc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Strings, JsonEscapeCoversEveryControlCharacter) {
  // Every byte below 0x20 must leave the output as a valid JSON escape —
  // either a two-char shorthand or a \u00xx sequence — never raw.
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped =
        json_escape(std::string_view(reinterpret_cast<const char*>(&c), 1));
    ASSERT_GE(escaped.size(), 2u) << "byte " << c;
    EXPECT_EQ(escaped[0], '\\') << "byte " << c;
    for (char ch : escaped) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u) << "byte " << c;
    }
  }
}

TEST(Strings, JsonNumberEmitsNullForNonFinite) {
  // JSON has no NaN/Inf tokens; `null` is the only universally parseable
  // stand-in. The old quoted "nan"/"inf" strings broke numeric consumers.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(-std::nan("")), "null");
}

TEST(Strings, JsonNumberRoundTripsFiniteValues) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  // %.17g must reproduce the exact bit pattern through strtod for every
  // finite double, including negatives, subnormals, and extremes.
  const double cases[] = {
      -1.5,
      -0.0,
      1.0 / 3.0,
      -12345.678901234567,
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest subnormal
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      4.9406564584124654e-318,                     // mid-range subnormal
  };
  for (double value : cases) {
    const std::string text = json_number(value);
    double parsed = 0.0;
    ASSERT_TRUE(parse_double(text, parsed)) << text;
    EXPECT_EQ(std::memcmp(&parsed, &value, sizeof(double)), 0)
        << text << " parsed back as different bits";
  }
}

TEST(Log, ParseLogLevelAcceptsAllSpellings) {
  LogLevel level = LogLevel::Warn;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::Debug);
  EXPECT_TRUE(parse_log_level("INFO", level));
  EXPECT_EQ(level, LogLevel::Info);
  EXPECT_TRUE(parse_log_level("Warning", level));
  EXPECT_EQ(level, LogLevel::Warn);
  EXPECT_TRUE(parse_log_level("error", level));
  EXPECT_EQ(level, LogLevel::Error);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::Off);
  EXPECT_FALSE(parse_log_level("verbose", level));
  EXPECT_EQ(level, LogLevel::Off);  // untouched on failure
}

TEST(Cli, RuntimeFromCliParsesTelemetrySinks) {
  const char* argv[] = {"prog", "--metrics-out=m.json", "--trace-out=t.json",
                        "--epoch-log=e.jsonl"};
  const RuntimeConfig runtime = runtime_from_cli(Cli(4, argv));
  EXPECT_EQ(runtime.metrics_out, "m.json");
  EXPECT_EQ(runtime.trace_out, "t.json");
  EXPECT_EQ(runtime.epoch_log_out, "e.jsonl");
  const char* none[] = {"prog"};
  const RuntimeConfig empty = runtime_from_cli(Cli(1, none));
  EXPECT_TRUE(empty.metrics_out.empty());
  EXPECT_TRUE(empty.trace_out.empty());
  EXPECT_TRUE(empty.epoch_log_out.empty());
}

}  // namespace
}  // namespace eprons
