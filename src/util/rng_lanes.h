// A split() stream's uniform() draws, regenerated eight lanes at a time and
// read through a pointer.
//
// Stepping one xoshiro256** generator is a serial chain: every draw needs
// the state the previous one left. But a stream can be restarted from any
// saved state, so a stream whose states are known every kStride draws can
// be regenerated in kUniformLanes independent lanes — lane i starting at
// checkpoint c + i — stepped in lockstep in one AVX-512 register (two AVX2
// ones). Each lane runs next() on 64-bit integer words, and converts
// next() >> 11 to double exactly (the value has 53 bits, so the conversion
// rounds nothing) before the exact multiply by 2^-53: lane i's t-th value
// IS uniform() at draw (c + i) * kStride + t of the scalar stream, bit for
// bit, on every body. An 8x8 register transpose writes the lanes out in
// stream order.
//
// RngCheckpoints is the table of saved states: a memo of a pure function of
// (seed, stream, index), grown on demand under a lock and never shrunk, so
// it changes no value that is read from it — only how long the first read
// takes. UniformWindow is one reader's view of one stream: a round of
// kUniformLanes * kStride draws at a time, refilled from the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

namespace eprons {

/// Lanes stepped in lockstep: one AVX-512 register of 64-bit words.
inline constexpr std::size_t kUniformLanes = 8;

/// out[i * steps + t] = the t-th uniform() of a generator started at
/// starts[i], for i < kUniformLanes and t < steps; `steps` must be a
/// multiple of kUniformLanes. `body` must run on this host
/// (simd_body_runs); every body writes the same bits.
void uniform_lanes(SimdBody body, const Rng::State* starts, std::size_t steps,
                   double* out);

/// The generator states of a family of streams at every kStride-th draw.
/// Stream s is the generator of the s-th split() of Rng(seed) — the slack
/// estimator's shard streams. Construction stores the arguments only: the
/// streams' starts and every checkpoint are computed when first asked for,
/// by stepping the scalar generator. Thread-safe: concurrent readers and
/// growth serialize on one mutex.
class RngCheckpoints {
 public:
  /// Draws between checkpoints (L). A constant no value depends on.
  static constexpr std::size_t kStride = 1024;

  RngCheckpoints(std::uint64_t seed, std::size_t streams);

  /// Writes the states of stream `stream` at draws (first + i) * kStride,
  /// for i < count, growing the table as far as needed.
  void states(std::size_t stream, std::size_t first, std::size_t count,
              Rng::State* out) const;

  /// Checkpoints held, summed over the streams (grows only).
  std::size_t size() const;

 private:
  std::uint64_t seed_;
  std::size_t streams_;
  mutable std::mutex mutex_;
  /// Per stream: the generator at its newest checkpoint (empty until the
  /// first read).
  mutable std::vector<Rng> frontier_;
  mutable std::vector<std::vector<Rng::State>> states_;
};

/// One reader of one RngCheckpoints stream, from its first draw: it holds a
/// round of kUniformLanes * kStride draws (regenerated by uniform_lanes from
/// kUniformLanes consecutive checkpoints) and hands them out in stream
/// order. The reads below are always-inline, so a kernel's body compiles
/// them at its own vector width.
class UniformWindow {
 public:
  static constexpr std::size_t kRound = kUniformLanes * RngCheckpoints::kStride;

  /// `table` must outlive the window; `body` must run on this host.
  UniformWindow(const RngCheckpoints* table, std::size_t stream,
                SimdBody body);

  /// The stream's next uniform().
  double next() {
    if (at_ == end_) refill();
    return *at_++;
  }

  /// Reads rows * cols draws in stream order — row 0's cols draws, then
  /// row 1's — and writes draw (r, c) to dst[c][r]. With kNonzero, a slot
  /// whose draw is 0.0 takes the next draw instead, as the scalar loop
  /// `do u = rng.uniform(); while (u == 0.0);` does per slot — also when
  /// the rejected draw is the last of a round. A round that holds all the
  /// draws (and, with kNonzero, no 0.0 among them) is read in one
  /// branch-free pass; anything else takes the per-draw path.
  template <bool kNonzero>
  [[gnu::always_inline]] void take_columns(std::size_t rows, std::size_t cols,
                                           double* const* dst) {
    const std::size_t n = rows * cols;
    const double* src = at_;
    if (static_cast<std::size_t>(end_ - src) >= n) {
      std::size_t zeros = 0;
      if constexpr (kNonzero) {
        for (std::size_t k = 0; k < n; ++k) zeros += src[k] == 0.0 ? 1 : 0;
      }
      if (zeros == 0) {
        for (std::size_t c = 0; c < cols; ++c) {
          double* column = dst[c];
          for (std::size_t r = 0; r < rows; ++r) column[r] = src[r * cols + c];
        }
        at_ += n;
        return;
      }
    }
    take_columns_per_draw(rows, cols, dst, kNonzero);
  }

 private:
  friend struct UniformWindowProbe;  // tests: inject draws into a round

  void refill();
  void take_columns_per_draw(std::size_t rows, std::size_t cols,
                             double* const* dst, bool nonzero);

  const RngCheckpoints* table_;
  std::size_t stream_;
  SimdBody body_;
  std::size_t next_round_ = 0;
  std::unique_ptr<double[]> round_;
  const double* at_ = nullptr;
  const double* end_ = nullptr;
};

}  // namespace eprons
