#ifndef UFIM_PROB_NORMAL_H_
#define UFIM_PROB_NORMAL_H_

#include <cstddef>

namespace ufim {

/// Standard Normal CDF Φ(x).
double StdNormalCdf(double x);

/// Normal (Lyapunov CLT) approximation of the frequent probability
/// Pr(sup(X) >= msc) for a Poisson-binomial support distribution with the
/// given mean and variance, using the 0.5 continuity correction:
///
///   Pr(X) ≈ 1 − Φ((msc − 0.5 − esup) / sqrt(var))
///
/// Note: the paper's §3.3.2 prints Φ(...) without the "1 −"; as printed
/// that is the probability of *infrequency*. We implement the corrected
/// orientation (it is the one that matches the cited source and the exact
/// DP/DC values; see DESIGN.md §2).
///
/// Degenerate case var <= 0 (all containment probabilities are 0 or 1):
/// the support is deterministic and the function returns the step
/// function [esup >= msc - 0.5].
double NormalApproxFrequentProbability(double esup, double variance,
                                       std::size_t msc);

}  // namespace ufim

#endif  // UFIM_PROB_NORMAL_H_
