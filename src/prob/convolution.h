#ifndef UFIM_PROB_CONVOLUTION_H_
#define UFIM_PROB_CONVOLUTION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "prob/fft.h"

namespace ufim {

/// Schoolbook O(n*m) polynomial multiplication into `out`, resized to
/// a.size()+b.size()-1 (empty when either input is). Reference
/// implementation and the fast path for small operands (FFT constant
/// factors dominate below ~64 coefficients).
void NaiveConvolveInto(std::span<const double> a, std::span<const double> b,
                       std::vector<double>& out);

/// NaiveConvolveInto, returning the product.
std::vector<double> NaiveConvolve(const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Folds all probability mass at indices >= cap into index cap, leaving
/// a "tail-capped" pmf of length at most cap+1. Index cap then means
/// Pr(S >= cap).
void CapPmfInPlace(std::vector<double>& pmf, std::size_t cap);

/// CapPmfInPlace on a copy.
std::vector<double> CapPmf(std::vector<double> pmf, std::size_t cap);

/// Convolves two tail-capped pmfs into `out` and re-caps it at `cap`.
/// Because any combination involving mass at >= cap lands at >= cap, the
/// lumped representation stays exact for the tail Pr(S >= cap).
/// Uses FFT (through `fft`) when both operands have at least
/// `fft_threshold` coefficients. `out` must not alias `a` or `b`.
void CappedConvolveInto(std::span<const double> a, std::span<const double> b,
                        std::size_t cap, std::size_t fft_threshold,
                        FftBuffers& fft, std::vector<double>& out);

/// CappedConvolveInto with fresh buffers, returning the capped product.
std::vector<double> CappedConvolve(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   std::size_t cap,
                                   std::size_t fft_threshold = 64);

}  // namespace ufim

#endif  // UFIM_PROB_CONVOLUTION_H_
