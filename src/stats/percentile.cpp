#include "stats/percentile.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace eprons {

namespace {

constexpr int kSelectBits = 11;
constexpr std::size_t kSelectBuckets = std::size_t{1} << kSelectBits;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// A key whose unsigned order is the IEEE total order of the doubles:
// negative values flip every bit, the rest flip only the sign bit.
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto negative =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (negative | kSignBit);
}

double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
}

}  // namespace

std::size_t nearest_rank(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 1.0);
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank;
}

void select_ranks(std::span<const double> values,
                  std::span<const std::size_t> ranks, std::span<double> out) {
  if (out.size() != ranks.size()) {
    throw std::invalid_argument("select_ranks: one output per rank");
  }
  if (ranks.empty()) return;
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] < 1 || ranks[i] > n || (i > 0 && ranks[i] < ranks[i - 1])) {
      throw std::out_of_range(
          "select_ranks: ranks must be non-decreasing in [1, n]");
    }
  }

  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (double x : values) {
    const std::uint64_t key = order_key(x);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }

  // (key - lo) >> shift is below 2^11 and never decreases as the value
  // grows, so the rank-th smallest value lies in the bucket where the
  // running count first reaches the rank.
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - kSelectBits);
  std::array<std::size_t, kSelectBuckets> count{};
  for (double x : values) ++count[(order_key(x) - lo) >> shift];

  std::size_t first = 0;
  std::size_t below = 0;  // values in buckets before `first`
  while (below + count[first] < ranks.front()) below += count[first++];
  std::size_t last = first;
  std::size_t through = below + count[first];  // ... through `last`
  while (through < ranks.back()) through += count[++last];

  // Gather the keys of buckets first..last (selecting among keys breaks
  // ties by the total order too). Branch-free: every key is written, and
  // the end advances past it only when its bucket is in range.
  std::vector<std::uint64_t> members(through - below + 1);
  std::size_t end = 0;
  for (double x : values) {
    const std::uint64_t key = order_key(x);
    members[end] = key;
    end += static_cast<std::size_t>((key - lo) >> shift) - first <=
           last - first;
  }
  members.resize(end);
  // After each selection everything past its position is >= it, so the
  // next (not lower) rank is selected inside that tail.
  auto from = members.begin();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto nth =
        members.begin() + static_cast<std::ptrdiff_t>(ranks[i] - below - 1);
    std::nth_element(from, nth, members.end());
    out[i] = from_order_key(*nth);
    from = nth;
  }
}

void PercentileEstimator::add(double sample) { samples_.push_back(sample); }

double PercentileEstimator::quantile(double p) const {
  if (samples_.empty()) return 0.0;
  // One rank per call: select_ranks gathers every bucket between its
  // lowest and highest rank, which for p50 and p99 together is half the
  // samples.
  const std::size_t rank = nearest_rank(samples_.size(), p);
  double out = 0.0;
  select_ranks(samples_, {&rank, 1}, {&out, 1});
  return out;
}

double PercentileEstimator::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

double PercentileEstimator::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double PercentileEstimator::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

void PercentileEstimator::clear() { samples_.clear(); }

WindowedPercentile::WindowedPercentile(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void WindowedPercentile::add(double sample) {
  window_.push_back(sample);
  if (window_.size() > capacity_) window_.pop_front();
}

double WindowedPercentile::quantile(double p) const {
  if (window_.empty()) return 0.0;
  // Nearest rank by selection: nth_element puts the rank-th smallest value
  // where a full sort would, so the result is the same element. (At window
  // sizes of a few hundred, select_ranks' 2^11-bucket count is not cheaper.)
  std::vector<double> values(window_.begin(), window_.end());
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank(values.size(), p) - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

void WindowedPercentile::clear() { window_.clear(); }

}  // namespace eprons
