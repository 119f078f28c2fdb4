// The divide-and-conquer tail runs over reusable scratch: one pmf buffer
// pair per recursion depth, FFT buffers kept across conquers, and FFT
// twiddles read from a per-thread table. These properties pin it, bit for
// bit, to the allocating recursion it replaced, kept below as the oracle
// together with its convolution and its two-multiply FFT; and they check
// that a repeated tail allocates nothing. This binary links the
// allocation hooks.
#include <cmath>
#include <complex>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "eval/memory_tracker.h"
#include "prob/fft.h"
#include "prob/poisson_binomial.h"
#include "testing/mixed_probs.h"

namespace ufim {
namespace {

using testing_util::MixedProbs;

namespace oracle {

constexpr double kPi = 3.14159265358979323846;

// The FFT that recomputed each twiddle with a second complex multiply
// per butterfly.
void Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * kPi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        std::complex<double> u = data[i + k];
        std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<double> FftConvolve(const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = NextPowerOfTwo(out_len);
  std::vector<std::complex<double>> fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  Fft(fa, /*inverse=*/false);
  Fft(fb, /*inverse=*/false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  Fft(fa, /*inverse=*/true);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) {
    double v = fa[i].real() / static_cast<double>(n);
    out[i] = v < 0.0 ? 0.0 : v;
  }
  return out;
}

std::vector<double> NaiveConvolve(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += ai * b[j];
  }
  return out;
}

std::vector<double> CapPmf(std::vector<double> pmf, std::size_t cap) {
  if (pmf.size() <= cap + 1) return pmf;
  double overflow = 0.0;
  for (std::size_t i = cap; i < pmf.size(); ++i) overflow += pmf[i];
  pmf.resize(cap + 1);
  pmf[cap] = overflow;
  return pmf;
}

std::vector<double> CappedConvolve(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   std::size_t cap, std::size_t fft_threshold) {
  std::vector<double> conv;
  if (a.size() >= fft_threshold && b.size() >= fft_threshold) {
    conv = FftConvolve(a, b);
  } else {
    conv = NaiveConvolve(a, b);
  }
  return CapPmf(std::move(conv), cap);
}

// A fresh vector per tree node.
std::vector<double> DcRecurse(const std::vector<double>& probs, std::size_t lo,
                              std::size_t hi, std::size_t cap,
                              std::size_t fft_threshold) {
  if (hi - lo == 1) {
    const double p = probs[lo];
    if (cap == 0) return {1.0};
    return {1.0 - p, p};
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::vector<double> left = DcRecurse(probs, lo, mid, cap, fft_threshold);
  std::vector<double> right = DcRecurse(probs, mid, hi, cap, fft_threshold);
  return CappedConvolve(left, right, cap, fft_threshold);
}

std::vector<double> CappedPmfDC(const std::vector<double>& probs,
                                std::size_t cap, std::size_t fft_threshold) {
  if (probs.empty()) return {1.0};
  return CapPmf(DcRecurse(probs, 0, probs.size(), cap, fft_threshold), cap);
}

double TailDC(const std::vector<double>& probs, std::size_t k,
              std::size_t fft_threshold) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  const std::vector<double> pmf = CappedPmfDC(probs, k, fft_threshold);
  return pmf.size() > k ? pmf[k] : pmf.back();
}

}  // namespace oracle

constexpr std::size_t kThresholds[] = {1, 8, 64, std::size_t{1} << 20};

TEST(DcScratchTest, SeededCasesMatchAllocatingRecursionBitForBit) {
  Rng rng(2424);
  // (probs, k, fft_threshold), shuffled so that one scratch sees sizes
  // grow and shrink: a stale bin left by a larger case would show.
  std::vector<std::tuple<std::vector<double>, std::size_t, std::size_t>> cases;
  for (std::size_t n : {1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 2500}) {
    for (int draw = 0; draw < 2; ++draw) {
      const std::vector<double> probs = MixedProbs(rng, n);
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n,
                            n + 1}) {
        for (std::size_t threshold : kThresholds) {
          cases.emplace_back(probs, k, threshold);
        }
      }
    }
  }
  for (std::size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.UniformInt(0, i - 1)]);
  }
  ASSERT_GE(cases.size(), 400u);
  DcScratch scratch;
  for (const auto& [probs, k, threshold] : cases) {
    const double expect = oracle::TailDC(probs, k, threshold);
    EXPECT_EQ(PoissonBinomialTailDC(probs, k, threshold, scratch), expect)
        << "n=" << probs.size() << " k=" << k << " threshold=" << threshold;
    EXPECT_EQ(PoissonBinomialTailDC(probs, k, threshold), expect)
        << "n=" << probs.size() << " k=" << k << " threshold=" << threshold;
  }
}

TEST(DcScratchTest, CappedPmfMatchesAllocatingRecursionBitForBit) {
  Rng rng(2425);
  for (std::size_t n : {0, 1, 2, 63, 64, 65, 129, 700}) {
    const std::vector<double> probs = MixedProbs(rng, n);
    for (std::size_t cap : {std::size_t{0}, std::size_t{1}, n / 3, n, n + 2}) {
      for (std::size_t threshold : kThresholds) {
        EXPECT_EQ(PoissonBinomialCappedPmfDC(probs, cap, threshold),
                  oracle::CappedPmfDC(probs, cap, threshold))
            << "n=" << n << " cap=" << cap << " threshold=" << threshold;
      }
    }
  }
}

// The twiddle table grows with the longest transform seen on the thread;
// shorter and longer transforms afterwards must read the same factors
// the recurrence would have produced.
TEST(DcScratchTest, FftMatchesTwoMultiplyButterfliesBitForBit) {
  Rng rng(2426);
  for (std::size_t n : {2, 4, 1024, 8, 4096, 1, 64, 2048, 16}) {
    for (bool inverse : {false, true}) {
      std::vector<std::complex<double>> data(n);
      for (auto& c : data) c = {rng.Uniform01(), rng.Uniform01() - 0.5};
      std::vector<std::complex<double>> expect = data;
      Fft(data, inverse);
      oracle::Fft(expect, inverse);
      EXPECT_EQ(data, expect) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(DcScratchTest, RepeatedTailsAllocateNothing) {
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  Rng rng(2427);
  const std::vector<double> large = MixedProbs(rng, 2700);
  const std::vector<double> small = MixedProbs(rng, 900);
  constexpr std::size_t kRepeats = 4;
  double tails[2 * kRepeats] = {};
  DcScratch scratch;
  // The first tail grows the buffers and this thread's twiddle table.
  const double first = PoissonBinomialTailDC(large, 750, 64, scratch);
  const std::size_t before = memory_tracker::CurrentBytes();
  ScopedPeakMemory peak;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    tails[2 * r] = PoissonBinomialTailDC(large, 750, 64, scratch);
    tails[2 * r + 1] = PoissonBinomialTailDC(small, 600, 64, scratch);
  }
  EXPECT_EQ(peak.PeakDeltaBytes(), 0u);
  EXPECT_EQ(memory_tracker::CurrentBytes(), before);
  for (std::size_t r = 0; r < kRepeats; ++r) {
    EXPECT_EQ(tails[2 * r], first);
    EXPECT_EQ(tails[2 * r + 1], oracle::TailDC(small, 600, 64));
  }
}

}  // namespace
}  // namespace ufim
