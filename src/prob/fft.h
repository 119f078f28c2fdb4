#ifndef UFIM_PROB_FFT_H_
#define UFIM_PROB_FFT_H_

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace ufim {

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `data.size()` must be a power of two. `inverse == true` computes the
/// unscaled inverse transform; callers divide by the length themselves
/// (FftConvolve does). Implemented from scratch — the DC algorithm (§3.2.2
/// of the paper) uses it to reach O(N log N) per itemset. Twiddle factors
/// come from a per-thread table that grows to the longest transform the
/// thread has run (n complex values per direction) and is kept for the
/// thread's lifetime.
void Fft(std::vector<std::complex<double>>& data, bool inverse);

/// The two transform buffers of one FFT product. Callers that convolve
/// repeatedly keep one and pass it back in, so a product allocates only
/// when it outgrows every earlier one.
struct FftBuffers {
  std::vector<std::complex<double>> a;
  std::vector<std::complex<double>> b;
};

/// Real polynomial multiplication via FFT into `out`: out[k] =
/// sum_{i+j=k} a[i]*b[j], resized to a.size()+b.size()-1 (empty when
/// either input is). Negative round-off is clipped to 0, since every
/// caller multiplies probability mass functions.
void FftConvolveInto(std::span<const double> a, std::span<const double> b,
                     FftBuffers& buffers, std::vector<double>& out);

/// FftConvolveInto with fresh buffers, returning the product.
std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b);

}  // namespace ufim

#endif  // UFIM_PROB_FFT_H_
