#include "prob/fft.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace ufim {

namespace {
constexpr double kPi = 3.14159265358979323846;

// Twiddles of every butterfly stage up to the longest transform this
// thread has run, one table per direction. Stage `len` keeps w^0 ..
// w^(len/2 - 1) at [len/2, len), each made by the `w *= wlen`
// recurrence from w = 1, so a cached factor has the bits it would have
// if recomputed inside the stage. Index 0 is unused.
const std::complex<double>* Twiddles(std::size_t n, bool inverse) {
  thread_local std::vector<std::complex<double>> forward_table;
  thread_local std::vector<std::complex<double>> inverse_table;
  std::vector<std::complex<double>>& table =
      inverse ? inverse_table : forward_table;
  const std::size_t built = table.size();
  if (built < n) {
    table.resize(n);
    for (std::size_t len = std::max<std::size_t>(2, 2 * built); len <= n;
         len <<= 1) {
      const double angle =
          2.0 * kPi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        table[len / 2 + k] = w;
        w *= wlen;
      }
    }
  }
  return table.data();
}

}  // namespace

void Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterflies.
  const std::complex<double>* twiddles = Twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* w = twiddles + half;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        std::complex<double> u = data[i + k];
        std::complex<double> v = data[i + k + half] * w[k];
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
  }
}

void FftConvolveInto(std::span<const double> a, std::span<const double> b,
                     FftBuffers& buffers, std::vector<double>& out) {
  if (a.empty() || b.empty()) {
    out.clear();
    return;
  }
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = NextPowerOfTwo(out_len);
  std::vector<std::complex<double>>& fa = buffers.a;
  std::vector<std::complex<double>>& fb = buffers.b;
  fa.assign(n, {});
  fb.assign(n, {});
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  Fft(fa, /*inverse=*/false);
  Fft(fb, /*inverse=*/false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  Fft(fa, /*inverse=*/true);
  out.resize(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    double v = fa[i].real() / static_cast<double>(n);
    // Probabilities cannot be negative; clip FFT round-off noise.
    out[i] = v < 0.0 ? 0.0 : v;
  }
}

std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b) {
  FftBuffers buffers;
  std::vector<double> out;
  FftConvolveInto(a, b, buffers, out);
  return out;
}

}  // namespace ufim
