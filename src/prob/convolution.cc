#include "prob/convolution.h"

namespace ufim {

void NaiveConvolveInto(std::span<const double> a, std::span<const double> b,
                       std::vector<double>& out) {
  if (a.empty() || b.empty()) {
    out.clear();
    return;
  }
  out.assign(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += ai * b[j];
    }
  }
}

std::vector<double> NaiveConvolve(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  std::vector<double> out;
  NaiveConvolveInto(a, b, out);
  return out;
}

void CapPmfInPlace(std::vector<double>& pmf, std::size_t cap) {
  if (pmf.size() <= cap + 1) return;
  double overflow = 0.0;
  for (std::size_t i = cap; i < pmf.size(); ++i) overflow += pmf[i];
  pmf.resize(cap + 1);
  pmf[cap] = overflow;
}

std::vector<double> CapPmf(std::vector<double> pmf, std::size_t cap) {
  CapPmfInPlace(pmf, cap);
  return pmf;
}

void CappedConvolveInto(std::span<const double> a, std::span<const double> b,
                        std::size_t cap, std::size_t fft_threshold,
                        FftBuffers& fft, std::vector<double>& out) {
  if (a.size() >= fft_threshold && b.size() >= fft_threshold) {
    FftConvolveInto(a, b, fft, out);
  } else {
    NaiveConvolveInto(a, b, out);
  }
  CapPmfInPlace(out, cap);
}

std::vector<double> CappedConvolve(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   std::size_t cap,
                                   std::size_t fft_threshold) {
  FftBuffers fft;
  std::vector<double> out;
  CappedConvolveInto(a, b, cap, fft_threshold, fft, out);
  return out;
}

}  // namespace ufim
