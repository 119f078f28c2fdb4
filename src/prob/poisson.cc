#include "prob/poisson.h"

#include <cmath>

namespace ufim {

namespace {

// Both the series and the continued fraction converge in O(sqrt(x))
// iterations when x is close to a (the regime mining hits with large
// databases: a = msc, x = lambda = esup); 500 iterations would silently
// lose accuracy above x ~ 1e4.
constexpr int kMaxIterations = 50000;
constexpr double kEps = 3.0e-14;
constexpr double kFpMin = 1.0e-300;

// Series representation of P(a, x), valid (fast) for x < a + 1.
double GammaPSeries(double a, double x) {
  const double gln = std::lgamma(a);
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - gln);
}

// Continued-fraction representation of Q(a, x), valid for x >= a + 1.
// Modified Lentz algorithm.
double GammaQContinuedFraction(double a, double x) {
  const double gln = std::lgamma(a);
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return std::exp(-x + a * std::log(x) - gln) * h;
}

}  // namespace

double RegularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double PoissonTail(std::size_t k, double lambda) {
  if (k == 0) return 1.0;
  if (lambda <= 0.0) return 0.0;
  return RegularizedGammaP(static_cast<double>(k), lambda);
}

double PoissonLambdaForTail(std::size_t msc, double pft) {
  if (msc == 0) return 0.0;
  const double m = static_cast<double>(msc);
  double lo = 0.0;
  double hi = m + 20.0 * std::sqrt(m + 1.0) + 60.0;
  // Ensure the bracket really contains the answer.
  while (PoissonTail(msc, hi) <= pft) hi *= 2.0;
  for (int i = 0; i < 200 && hi - lo > 1e-9; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (PoissonTail(msc, mid) > pft) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace ufim
