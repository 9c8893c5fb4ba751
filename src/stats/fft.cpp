#include "stats/fft.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace eprons {
namespace {

/// One direction's twiddles for every stage up to a power-of-two size:
/// stage `len` occupies entries [len/2 - 1, len - 1), entry k being the
/// k-th power of that stage's wlen as the w *= wlen recurrence rounds it.
struct Twiddles {
  std::vector<double> re;
  std::vector<double> im;
  std::size_t covered = 1;

  void cover(std::size_t n, bool inverse) {
    if (n <= covered) return;
    re.resize(n - 1);
    im.resize(n - 1);
    for (std::size_t len = 2 * covered; len <= n; len <<= 1) {
      const double angle =
          (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
      const double wlen_re = std::cos(angle);
      const double wlen_im = std::sin(angle);
      const std::size_t half = len / 2;
      double w_re = 1.0;
      double w_im = 0.0;
      for (std::size_t k = 0; k < half; ++k) {
        re[half - 1 + k] = w_re;
        im[half - 1 + k] = w_im;
        // w *= wlen, rounded as a std::complex<double> multiply.
        const double next_re = w_re * wlen_re - w_im * wlen_im;
        w_im = w_re * wlen_im + w_im * wlen_re;
        w_re = next_re;
      }
    }
    covered = n;
  }
};

/// Per-thread tables and scratch, grown to the largest transform the
/// thread has run and reused by every later one.
struct Engine {
  Twiddles forward;
  Twiddles inverse;
  std::vector<double> re;
  std::vector<double> im;
  Spectrum operand;  // convolve(a, b)'s spectrum of b

  void reserve(std::size_t n) {
    if (re.size() < n) {
      re.resize(n);
      im.resize(n);
    }
  }
};

Engine& engine() {
  thread_local Engine state;
  return state;
}

/// The decimation-in-time stages over bit-reversed input, in place. The
/// complex multiply v = b * w and the u +- v updates are spelled out on
/// the split arrays exactly as std::complex<double> evaluates them.
void butterflies(double* re, double* im, std::size_t n, const double* tw_re,
                 const double* tw_im) {
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* w_re = tw_re + (half - 1);
    const double* w_im = tw_im + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* a_re = re + i;
      double* a_im = im + i;
      double* b_re = a_re + half;
      double* b_im = a_im + half;
      // The a and b halves never overlap: vectorize without alias checks.
#pragma GCC ivdep
      for (std::size_t k = 0; k < half; ++k) {
        const double v_re = b_re[k] * w_re[k] - b_im[k] * w_im[k];
        const double v_im = b_re[k] * w_im[k] + b_im[k] * w_re[k];
        const double u_re = a_re[k];
        const double u_im = a_im[k];
        a_re[k] = u_re + v_re;
        a_im[k] = u_im + v_im;
        b_re[k] = u_re - v_re;
        b_im[k] = u_im - v_im;
      }
    }
  }
}

/// Steps j from rev(i) to rev(i + 1) for n-point bit reversal.
inline void next_reversed(std::size_t n, std::size_t& j) {
  std::size_t bit = n >> 1;
  for (; j & bit; bit >>= 1) j ^= bit;
  j ^= bit;
}

void bit_reverse_permute(double* re, double* im, std::size_t n) {
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    next_reversed(n, j);
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
}

/// Forward transform of real x zero-padded to n into re/im: x is
/// scattered straight into bit-reversed order (re[rev(i)] = x[i]).
void forward_real(Engine& e, const std::vector<double>& x, std::size_t n,
                  double* re, double* im) {
  assert(x.size() <= n);
  std::fill(re, re + n, 0.0);
  std::fill(im, im + n, 0.0);
  std::size_t j = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[j] = x[i];
    next_reversed(n, j);
  }
  e.forward.cover(n, /*inverse=*/false);
  butterflies(re, im, n, e.forward.re.data(), e.forward.im.data());
}

/// a (*) b at transform size n, given b's spectrum (b_re, b_im): one
/// forward transform, the pointwise product, one inverse transform.
std::vector<double> convolve_planned(Engine& e, const std::vector<double>& a,
                                     const double* b_re, const double* b_im,
                                     std::size_t b_size, std::size_t n) {
  e.reserve(n);
  double* re = e.re.data();
  double* im = e.im.data();
  forward_real(e, a, n, re, im);

  // Pointwise product A *= B, as std::complex<double> multiplies.
  for (std::size_t k = 0; k < n; ++k) {
    const double p_re = re[k] * b_re[k] - im[k] * b_im[k];
    const double p_im = re[k] * b_im[k] + im[k] * b_re[k];
    re[k] = p_re;
    im[k] = p_im;
  }

  bit_reverse_permute(re, im, n);
  e.inverse.cover(n, /*inverse=*/true);
  butterflies(re, im, n, e.inverse.re.data(), e.inverse.im.data());

  const std::size_t out_size = a.size() + b_size - 1;
  const double scale = 1.0 / static_cast<double>(n);
  std::vector<double> out(out_size);
  for (std::size_t i = 0; i < out_size; ++i) {
    const double v = re[i] * scale;
    out[i] = v < 0.0 ? 0.0 : v;  // clamp FFT round-off on probability mass
  }
  return out;
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  assert((n & (n - 1)) == 0 && "fft size must be a power of two");
  if (n <= 1) return;

  Engine& e = engine();
  e.reserve(n);
  double* re = e.re.data();
  double* im = e.im.data();
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = data[i].real();
    im[i] = data[i].imag();
  }
  bit_reverse_permute(re, im, n);
  Twiddles& twiddles = inverse ? e.inverse : e.forward;
  twiddles.cover(n, inverse);
  butterflies(re, im, n, twiddles.re.data(), twiddles.im.data());

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = {re[i] * scale, im[i] * scale};
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) data[i] = {re[i], im[i]};
  }
}

Spectrum real_spectrum(const std::vector<double>& x, std::size_t n) {
  assert((n & (n - 1)) == 0 && x.size() <= n);
  Spectrum spectrum;
  spectrum.re.resize(n);
  spectrum.im.resize(n);
  forward_real(engine(), x, n, spectrum.re.data(), spectrum.im.data());
  return spectrum;
}

std::size_t fft_convolution_size(std::size_t a_size, std::size_t b_size) {
  // For tiny inputs the direct method is faster and exact.
  if (a_size == 0 || b_size == 0 || a_size * b_size <= 1024) return 0;
  return next_pow2(a_size + b_size - 1);
}

std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  const std::size_t n = fft_convolution_size(a.size(), b.size());
  if (n == 0) return convolve_direct(a, b);
  Engine& e = engine();
  Spectrum& operand = e.operand;
  if (operand.size() < n) {
    operand.re.resize(n);
    operand.im.resize(n);
  }
  forward_real(e, b, n, operand.re.data(), operand.im.data());
  return convolve_planned(e, a, operand.re.data(), operand.im.data(),
                          b.size(), n);
}

std::vector<double> convolve(const std::vector<double>& a,
                             const Spectrum& b_spectrum, std::size_t b_size) {
  const std::size_t n = fft_convolution_size(a.size(), b_size);
  if (n == 0 || b_spectrum.size() != n) {
    throw std::invalid_argument("spectrum does not match the convolution");
  }
  return convolve_planned(engine(), a, b_spectrum.re.data(),
                          b_spectrum.im.data(), b_size, n);
}

std::vector<double> convolve_direct(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += ai * b[j];
    }
  }
  return out;
}

}  // namespace eprons
