#ifndef UFIM_PROB_POISSON_H_
#define UFIM_PROB_POISSON_H_

#include <cstddef>

namespace ufim {

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0,
/// x >= 0. Series expansion for x < a + 1, Lentz continued fraction
/// otherwise (Numerical Recipes construction, implemented from scratch).
double RegularizedGammaP(double a, double x);

/// Poisson upper tail Pr(X >= k) = P(k, lambda) for k >= 1; 1 for k == 0.
/// This is the approximation PDUApriori (§3.3.1) applies to the frequent
/// probability with lambda = esup(X).
double PoissonTail(std::size_t k, double lambda);

/// The λ* used by PDUApriori: the smallest lambda such that
/// Pr(Poisson(lambda) >= msc) > pft. PoissonTail is strictly increasing
/// in lambda, so an itemset is (Poisson-)approximately probabilistic-
/// frequent iff esup(X) >= λ*. Found by bisection to absolute 1e-9.
double PoissonLambdaForTail(std::size_t msc, double pft);

}  // namespace ufim

#endif  // UFIM_PROB_POISSON_H_
