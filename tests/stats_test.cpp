// Unit + property tests for src/stats: FFT, convolution, discretized
// distributions (the violation-probability substrate), percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_digest.h"
#include "stats/distribution.h"
#include "stats/fft.h"
#include "stats/percentile.h"
#include "util/rng.h"

namespace eprons {
namespace {

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, ForwardInverseRoundTrip) {
  Rng rng(1);
  std::vector<std::complex<double>> data(64);
  std::vector<std::complex<double>> orig(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    orig[i] = data[i];
  }
  fft(data, false);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, KnownTransformOfImpulse) {
  std::vector<std::complex<double>> data(8, {0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft(data, false);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Convolve, MatchesDirectSmall) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{4, 5};
  const auto out = convolve(a, b);
  const std::vector<double> expect{4, 13, 22, 15};
  ASSERT_EQ(out.size(), expect.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expect[i], 1e-9);
  }
}

TEST(Convolve, FftPathMatchesDirectLarge) {
  Rng rng(2);
  std::vector<double> a(300), b(200);
  for (double& x : a) x = rng.uniform();
  for (double& x : b) x = rng.uniform();
  const auto fast = convolve(a, b);  // large enough to take the FFT path
  const auto slow = convolve_direct(a, b);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-7);
  }
}

TEST(Convolve, EmptyInputGivesEmpty) {
  EXPECT_TRUE(convolve({}, {1.0}).empty());
  EXPECT_TRUE(convolve({1.0}, {}).empty());
}

// A 512-bin heavy-tailed PDF built from raw uniforms only (no libm), so its
// bits depend on nothing but the RNG: an Irwin-Hall body plus a sparse
// tail whose empty bins exercise exact zeros through the transforms.
std::vector<double> golden_work_pmf() {
  Rng rng(2024);
  std::vector<double> samples(40000);
  for (double& x : samples) {
    x = rng.uniform() < 0.05 ? 3.0 + 9.0 * rng.uniform() * rng.uniform()
                             : rng.uniform() + rng.uniform() + rng.uniform();
  }
  return DiscreteDistribution::from_samples(samples, 512).pmf();
}

// Convolution bits pinned to constants captured from the reference radix-2
// butterfly (on-the-fly twiddle recurrence, std::complex arithmetic): every
// residual tail pmf[i..] of the PDF convolved with the PDF, as the arrival-
// instant residual chain does, covering both the FFT and the direct path.
TEST(ConvolveGolden, EveryResidualTailMatchesReferenceBits) {
  const std::vector<double> work = golden_work_pmf();
  ASSERT_EQ(work.size(), 512u);
  BitDigest digest;
  for (std::size_t first = 0; first < work.size(); ++first) {
    const std::vector<double> tail(
        work.begin() + static_cast<std::ptrdiff_t>(first), work.end());
    digest.mix_doubles(convolve(tail, work));
  }
  EXPECT_EQ(digest.value(), 0xaaf902e72f07c748ull);
}

TEST(ConvolveGolden, SelfConvolutionChainMatchesReferenceBits) {
  // work^(*k) for k up to 6 through DiscreteDistribution (normalize, no
  // truncation): transform sizes 1024 .. 4096.
  const std::vector<double> work = golden_work_pmf();
  const DiscreteDistribution base(0.0, 1.0, work);
  DiscreteDistribution chain = base;
  BitDigest digest;
  for (int k = 2; k <= 6; ++k) {
    chain = chain.convolve(base);
    digest.mix_distribution(chain);
  }
  EXPECT_EQ(digest.value(), 0x206e0e2bd6cad771ull);
}

// ---- DiscreteDistribution ----

DiscreteDistribution make_uniform(double offset, double step, std::size_t n) {
  return DiscreteDistribution(offset, step,
                              std::vector<double>(n, 1.0 / double(n)));
}

TEST(Distribution, NormalizesMass) {
  DiscreteDistribution d(0.0, 1.0, {2.0, 2.0, 4.0});
  EXPECT_NEAR(d.pmf()[0], 0.25, 1e-12);
  EXPECT_NEAR(d.pmf()[2], 0.5, 1e-12);
}

TEST(Distribution, RejectsBadInput) {
  EXPECT_THROW(DiscreteDistribution(0.0, 0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution(0.0, 1.0, {0.0, 0.0}),
               std::invalid_argument);
}

TEST(Distribution, MeanAndVarianceOfPointMass) {
  const auto d = DiscreteDistribution::point_mass(7.0, 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 7.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(Distribution, CdfCcdfComplement) {
  const auto d = make_uniform(0.0, 1.0, 10);
  for (double x = -1.0; x < 11.0; x += 0.37) {
    EXPECT_NEAR(d.cdf(x) + d.ccdf(x), 1.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(d.cdf(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(9.5), 1.0);
}

TEST(Distribution, CdfMonotone) {
  Rng rng(3);
  std::vector<double> pmf(50);
  for (double& p : pmf) p = rng.uniform();
  DiscreteDistribution d(5.0, 0.25, std::move(pmf));
  double prev = -1.0;
  for (double x = 4.0; x < 20.0; x += 0.05) {
    const double c = d.cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

TEST(Distribution, QuantileInverseOfCdf) {
  const auto d = make_uniform(0.0, 1.0, 100);
  const double q95 = d.quantile(0.95);
  EXPECT_NEAR(d.cdf(q95), 0.95, 0.02);
}

TEST(Distribution, ConvolutionMeansAdd) {
  const auto a = make_uniform(10.0, 1.0, 20);
  const auto b = make_uniform(5.0, 1.0, 8);
  const auto c = a.convolve(b);
  EXPECT_NEAR(c.mean(), a.mean() + b.mean(), 1e-9);
  EXPECT_NEAR(c.variance(), a.variance() + b.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(c.min_value(), 15.0);
}

TEST(Distribution, ConvolutionMassSumsToOne) {
  const auto a = make_uniform(0.0, 2.0, 33);
  const auto c = a.convolve(a).convolve(a);
  const double total =
      std::accumulate(c.pmf().begin(), c.pmf().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Distribution, ConvolveRejectsMismatchedSteps) {
  const auto a = make_uniform(0.0, 1.0, 4);
  const auto b = make_uniform(0.0, 2.0, 4);
  EXPECT_THROW(a.convolve(b), std::invalid_argument);
}

TEST(Distribution, ConditionalRemainingShiftsSupport) {
  const auto d = make_uniform(0.0, 1.0, 10);  // values 0..9
  const auto r = d.conditional_remaining(4.0);
  // Remaining values are {1..5} with equal mass (bins 5..9 shifted by 4).
  EXPECT_NEAR(r.min_value(), 1.0, 1e-9);
  EXPECT_NEAR(r.max_value(), 5.0, 1e-9);
  EXPECT_NEAR(r.mean(), 3.0, 1e-9);
}

TEST(Distribution, ConditionalRemainingPastSupportIsZero) {
  const auto d = make_uniform(0.0, 1.0, 10);
  const auto r = d.conditional_remaining(100.0);
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
}

TEST(Distribution, ConditionalRemainingBeforeSupportIsShift) {
  const auto d = make_uniform(10.0, 1.0, 5);
  const auto r = d.conditional_remaining(2.0);
  EXPECT_NEAR(r.mean(), d.mean() - 2.0, 1e-9);
}

TEST(Distribution, FromSamplesRecoversMoments) {
  Rng rng(4);
  std::vector<double> samples;
  samples.reserve(100000);
  for (int i = 0; i < 100000; ++i) samples.push_back(rng.lognormal(1.0, 0.4));
  const auto d = DiscreteDistribution::from_samples(samples, 200);
  const double expect_mean = std::exp(1.0 + 0.4 * 0.4 / 2.0);
  EXPECT_NEAR(d.mean(), expect_mean, expect_mean * 0.02);
}

TEST(Distribution, TruncatedDropsNegligibleTails) {
  std::vector<double> pmf(100, 0.0);
  pmf[50] = 1.0;
  pmf[0] = 1e-15;
  pmf[99] = 1e-15;
  DiscreteDistribution d(0.0, 1.0, std::move(pmf));
  const auto t = d.truncated(1e-9);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.min_value(), 50.0);
}

TEST(Distribution, SampleStaysOnSupportAndMatchesMean) {
  const auto d = make_uniform(10.0, 0.5, 40);  // values 10 .. 29.5
  Rng rng(5);
  double total = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double s = d.sample(rng);
    EXPECT_GE(s, 10.0 - 0.25 - 1e-9);
    EXPECT_LE(s, 29.5 + 0.25 + 1e-9);
    total += s;
  }
  EXPECT_NEAR(total / n, d.mean(), 0.05);
}

// The CDF a distribution keeps, by its own running sum over the normalized
// masses, and the bin a draw took before the sampling guide: lower_bound.
std::vector<double> cdf_of(const DiscreteDistribution& d) {
  std::vector<double> cdf(d.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    acc += d.pmf()[i];
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

std::size_t lower_bound_bin(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

std::vector<DiscreteDistribution> guide_cases() {
  std::vector<double> gappy(1000, 0.0);  // long flat CDF runs, 1000 bins
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    gappy[static_cast<std::size_t>(rng.uniform_int(0, 999))] += rng.uniform();
  }
  return {DiscreteDistribution(1.5e6, 2.5e4, golden_work_pmf()),
          DiscreteDistribution(0.0, 1.0, std::move(gappy)),
          make_uniform(10.0, 0.5, 3),
          // CDF entries k/4 and k/8: exactly on the guide's boundaries.
          make_uniform(0.0, 1.0, 4),
          DiscreteDistribution(0.0, 1.0,
                               {1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 3.0, 1.0}),
          DiscreteDistribution::point_mass(4.0, 1.0)};
}

TEST(Distribution, GuidedBinIsLowerBoundAtEveryBoundary) {
  for (const DiscreteDistribution& plain : guide_cases()) {
    DiscreteDistribution guided = plain;
    guided.build_sampling_guide();
    const std::vector<double> cdf = cdf_of(plain);
    // Every k / 2^13 covers the guide's k / M for any M up to 2^13; then
    // each CDF entry below 1; each with its neighbouring doubles.
    std::vector<double> us;
    for (int k = 0; k < 8192; ++k) us.push_back(k / 8192.0);
    for (const double c : cdf) {
      if (c < 1.0) us.push_back(c);
    }
    const std::size_t exact = us.size();
    for (std::size_t i = 0; i < exact; ++i) {
      us.push_back(std::nextafter(us[i], 1.0));
      if (us[i] > 0.0) us.push_back(std::nextafter(us[i], 0.0));
    }
    for (const double u : us) {
      ASSERT_LT(u, 1.0);
      const std::size_t want = lower_bound_bin(cdf, u);
      ASSERT_EQ(guided.bin_at(u), want) << "size " << plain.size() << " u "
                                        << u;
      ASSERT_EQ(plain.bin_at(u), want) << "size " << plain.size() << " u "
                                       << u;
    }
  }
}

TEST(Distribution, GuidedDrawsMatchLowerBoundDrawsBitForBit) {
  for (const DiscreteDistribution& plain : guide_cases()) {
    DiscreteDistribution guided = plain;
    guided.build_sampling_guide();
    const std::vector<double> cdf = cdf_of(plain);
    Rng rng(31);
    Rng reference(31);
    for (int i = 0; i < 1000000; ++i) {
      const double got = guided.sample(rng);
      const std::size_t idx = lower_bound_bin(cdf, reference.uniform());
      const double base =
          plain.offset() + static_cast<double>(idx) * plain.step();
      const double want = base + (reference.uniform() - 0.5) * plain.step();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "size " << plain.size() << " draw " << i;
    }
  }
}

// Property sweep: CCDF evaluated through equation (1) style lookups is
// monotone non-increasing in frequency for any deadline.
class DistributionVpProperty : public ::testing::TestWithParam<double> {};

TEST_P(DistributionVpProperty, CcdfMonotoneInFrequency) {
  Rng rng(6);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.lognormal(14.0, 0.5));
  const auto work = DiscreteDistribution::from_samples(samples, 256);
  const double deadline_us = GetParam();
  double prev = 2.0;
  for (double f = 1.2; f <= 2.7 + 1e-9; f += 0.1) {
    const double vp = work.ccdf(f * 1000.0 * deadline_us);
    EXPECT_LE(vp, prev + 1e-12) << "f=" << f;
    prev = vp;
  }
}

INSTANTIATE_TEST_SUITE_P(Deadlines, DistributionVpProperty,
                         ::testing::Values(500.0, 1000.0, 2000.0, 5000.0,
                                           10000.0));

// ---- Percentiles ----

TEST(Percentile, NearestRankConvention) {
  PercentileEstimator p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(Percentile, EmptyReturnsZero) {
  PercentileEstimator p;
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileEstimator p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
  p.add(1.0);
  p.add(9.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(p.max(), 9.0);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
}

TEST(Percentile, QuantilesLeaveSamplesInInsertionOrder) {
  PercentileEstimator p;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    p.add(rng.lognormal(0.0, 2.0) * (i % 7 == 0 ? 1e6 : 1.0));
  }
  const std::vector<double> inserted = p.samples();
  const double mean_before = p.mean();
  std::vector<double> sorted = inserted;
  std::sort(sorted.begin(), sorted.end());
  // A mean summed in sorted order has other bits on these samples, so a
  // quantile that sorted them in place would show in mean().
  double sorted_total = 0.0;
  for (const double x : sorted) sorted_total += x;
  ASSERT_NE(sorted_total / static_cast<double>(sorted.size()), mean_before);

  for (const double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    const double want = sorted[nearest_rank(sorted.size(), q) - 1];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.quantile(q)),
              std::bit_cast<std::uint64_t>(want)) << "p " << q;
  }
  EXPECT_EQ(p.samples(), inserted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.mean()),
            std::bit_cast<std::uint64_t>(mean_before));
}

TEST(WindowedPercentile, ForgetsOldSamples) {
  WindowedPercentile w(10);
  for (int i = 0; i < 10; ++i) w.add(1000.0);
  for (int i = 0; i < 10; ++i) w.add(1.0);
  EXPECT_DOUBLE_EQ(w.quantile(0.99), 1.0);
}

// ---- Exact rank selection ----

TEST(NearestRank, CeilOfPTimesNClampedToOneThroughN) {
  EXPECT_EQ(nearest_rank(100, 0.95), 95u);
  EXPECT_EQ(nearest_rank(61380, 0.95), 58311u);
  EXPECT_EQ(nearest_rank(61380, 0.99), 60767u);
  EXPECT_EQ(nearest_rank(3, 0.5), 2u);
  EXPECT_EQ(nearest_rank(7, 0.0), 1u);
  EXPECT_EQ(nearest_rank(7, -1.0), 1u);
  EXPECT_EQ(nearest_rank(7, 1.0), 7u);
  EXPECT_EQ(nearest_rank(7, 2.0), 7u);
  EXPECT_EQ(nearest_rank(1, 0.95), 1u);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// The value std::nth_element places at index rank - 1.
double nth_element_value(std::vector<double> values, std::size_t rank) {
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

// select_ranks must return nth_element's bits at ranks 1 and n and at the
// p95/p99 nearest ranks, one rank per call and all four from one call.
void expect_selection_matches_nth_element(const std::vector<double>& values,
                                          const std::string& label) {
  const std::size_t n = values.size();
  const std::size_t ranks[] = {1, nearest_rank(n, 0.95),
                               nearest_rank(n, 0.99), n};
  double together[4];
  select_ranks(values, ranks, together);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t rank = ranks[i];
    const std::uint64_t want = bits_of(nth_element_value(values, rank));
    double alone = 0.0;
    select_ranks(values, {&rank, 1}, {&alone, 1});
    EXPECT_EQ(bits_of(alone), want) << label << " n=" << n << " rank=" << rank;
    EXPECT_EQ(bits_of(together[i]), want)
        << label << " n=" << n << " rank=" << rank << " (one call)";
  }
}

TEST(SelectRanks, MatchesNthElementBitForBit) {
  // 61380 is a k=16 slack buffer: 1023 routed pairs x 60 samples.
  for (const std::size_t n : {1u, 2u, 3u, 64u, 61380u}) {
    Rng rng(1000 + n);
    const auto fill = [&](auto draw) {
      std::vector<double> v(n);
      for (double& x : v) x = draw();
      return v;
    };
    expect_selection_matches_nth_element(
        fill([&] { return 20.0 + rng.exponential(50.0); }), "latency-like");
    expect_selection_matches_nth_element(fill([] { return 3.25; }),
                                         "all-equal");
    expect_selection_matches_nth_element(
        fill([&] { return rng.uniform() < 0.9 ? 1.0 : 2.0; }), "two-valued");
    expect_selection_matches_nth_element(
        fill([&] { return rng.uniform() < 0.3 ? 0.0 : rng.uniform(0, 5); }),
        "exact zeros");
    expect_selection_matches_nth_element(
        fill([&] { return rng.normal(0.0, 5.0); }), "negatives");
    expect_selection_matches_nth_element(
        fill([&] {
          return std::exp(rng.uniform(std::log(1e-3), std::log(1e6)));
        }),
        "1e-3..1e6 spread");
  }
}

TEST(SelectRanks, OrdersNegativeZeroFirstAndRejectsBadRanks) {
  const std::vector<double> values = {0.0, 1.0, -0.0};
  const std::size_t ranks[] = {1, 2, 3};
  double out[3];
  select_ranks(values, ranks, out);
  EXPECT_EQ(bits_of(out[0]), bits_of(-0.0));
  EXPECT_EQ(bits_of(out[1]), bits_of(0.0));
  EXPECT_EQ(out[2], 1.0);

  double one = 0.0;
  const std::size_t zero = 0;
  const std::size_t past_end = 4;
  const std::size_t decreasing[] = {2, 1};
  double two[2];
  EXPECT_THROW(select_ranks(values, {&zero, 1}, {&one, 1}),
               std::out_of_range);
  EXPECT_THROW(select_ranks(values, {&past_end, 1}, {&one, 1}),
               std::out_of_range);
  EXPECT_THROW(select_ranks(values, decreasing, two), std::out_of_range);
  EXPECT_THROW(select_ranks(values, ranks, two), std::invalid_argument);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);  // sample variance of 1..5
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, MergeEqualsSinglePass) {
  Rng rng(7);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

}  // namespace
}  // namespace eprons
