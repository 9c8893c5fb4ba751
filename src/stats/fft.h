// Radix-2 FFT convolution of work distributions.
//
// EPRONS-Server computes "equivalent request" distributions as convolutions
// of per-request work PDFs (paper section III-A/C); the paper reports ~20us
// per FFT convolution, which bench_micro_overheads measures.
//
// The engine is planned: each thread keeps twiddle tables for both
// directions and split real/imaginary scratch arrays, grown to the largest
// transform it has run, so a convolution allocates only its result. A
// caller that convolves many sequences with one fixed operand (the work
// PDF, see ServiceModel::work_spectrum) passes that operand's cached
// Spectrum, and the convolution costs one forward and one inverse
// transform. Measured with bench_micro_overheads on a 4-vCPU x86-64 VM
// (-O2, baseline SSE2 vectors): a 512 x 512-bin convolution (1024-point
// transforms) takes 18-26us with a cached spectrum and 24-42us computing
// both, against 180-200us for the textbook complex butterfly that
// recomputed its twiddles on the fly.
//
// Bit-exactness contract: every output equals, bit for bit, that of the
// textbook in-place decimation-in-time butterfly over std::complex<double>
// with on-the-fly twiddles (w = 1, then w *= wlen after each butterfly):
//   * twiddle tables are filled by that same recurrence, stage by stage,
//     from wlen = (cos(-+2pi/len), sin(-+2pi/len));
//   * butterflies run on split arrays with the IEEE operations GCC emits
//     for a std::complex<double> multiply (re = ar*br - ai*bi,
//     im = ar*bi + ai*br) and componentwise add/subtract, in that order;
//   * fft.cpp is compiled with -ffp-contract=off, so no build fuses a
//     multiply-add into an FMA; the vectorized butterfly runs the
//     identical operation sequence in every SIMD lane.
// The ConvolveGolden and ConvolutionGolden tests pin the bits to constants
// captured from the complex butterfly.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace eprons {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Forward transform of a real sequence zero-padded to a power-of-two
/// size, split into real and imaginary parts (both of that size).
struct Spectrum {
  std::vector<double> re;
  std::vector<double> im;

  std::size_t size() const { return re.size(); }
};

/// In-place radix-2 Cooley-Tukey FFT. data.size() must be a power of two.
/// inverse=true applies the inverse transform including the 1/N scaling.
void fft(std::vector<std::complex<double>>& data, bool inverse);

/// Spectrum of `x` zero-padded to `n` (a power of two >= x.size()).
Spectrum real_spectrum(const std::vector<double>& x, std::size_t n);

/// Transform size convolve() uses for operands of these lengths, or 0 when
/// it takes the direct path instead (tiny or empty operands).
std::size_t fft_convolution_size(std::size_t a_size, std::size_t b_size);

/// Linear convolution of two real sequences via FFT.
/// Result size is a.size() + b.size() - 1. Small negative values produced by
/// round-off are clamped to zero (inputs are probability masses).
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b);

/// convolve(a, b) for an operand b of length `b_size` given by its
/// spectrum, which must be real_spectrum(b, n) for
/// n = fft_convolution_size(a.size(), b_size) != 0. Bit-identical to
/// convolve(a, b), one forward transform cheaper.
std::vector<double> convolve(const std::vector<double>& a,
                             const Spectrum& b_spectrum, std::size_t b_size);

/// Direct O(n*m) convolution; reference implementation for testing and for
/// very short sequences where FFT setup costs dominate.
std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b);

}  // namespace eprons
