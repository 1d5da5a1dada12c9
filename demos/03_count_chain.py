"""The normalize-condition chain from counts to compositions.

Independent Poisson counts with common-scale Gamma intensities:

* the total is negative binomial (Poisson-Gamma mixture),
* given the total and intensities, the counts are multinomial,
* integrating the intensities out, the counts given the total are
  Dirichlet-multinomial,
* fixing one category and merging the rest gives a beta-binomial.

This script walks the chain numerically at small scale.
"""

import itertools
import math

import numpy as np

from countcomp import (
    BetaBinomialParams,
    CountVector,
    GammaMixtureParams,
    beta_binomial_log_pmf,
    dirichlet_multinomial_log_pmf,
    log_sum_exp,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
)

rng = np.random.default_rng(2)
params = GammaMixtureParams([2.0, 1.0, 1.0], 0.5)
R, p = params.total_shape, params.success_prob
print(f"shapes r={params.shapes.tolist()}, scale theta={params.scale}")
print(f"derived R={R}, p=theta/(1+theta)={p:.4f}")

# --- totals: mixture draws vs the closed-form NB PMF -------------------
n_draws = 30_000
draws = negative_binomial_sample_via_mixture(R, params.scale, rng, size=n_draws)
print("\ntotal S: empirical vs NB(R, p) mass")
for m in range(6):
    analytic = math.exp(negative_binomial_log_pmf(R, p, m))
    print(f"  m={m}: empirical {np.mean(draws == m):.4f}  analytic {analytic:.4f}")
print(f"  mean: empirical {draws.mean():.3f}  analytic R*theta = {R * params.scale:.3f}")

# --- conditional counts: Poisson vectors with total fixed --------------
# Each component's count is Poisson over its own Gamma(r_i, theta)
# intensity: one mixture draw per component and simulation.
m = 3
vecs = np.column_stack([
    negative_binomial_sample_via_mixture(r, params.scale, rng, size=200_000)
    for r in params.shapes
])
kept = vecs[vecs.sum(axis=1) == m]
print(f"\ncounts given S={m}: accepted {len(kept)} of 200000 simulations")
print("  cell: empirical vs Dirichlet-multinomial mass")
# Every count vector of 3 categories summing to m, in lexicographic order.
cells = [c for c in itertools.product(range(m + 1), repeat=3) if sum(c) == m]
for key in cells:
    cell = CountVector(list(key))
    emp = (kept == cell.counts).all(axis=1).mean()
    dm = math.exp(dirichlet_multinomial_log_pmf(params, m, cell))
    print(f"  {key}: {emp:.4f} vs {dm:.4f}")

# --- merging: beta-binomial marginal of the first category -------------
print(f"\nfirst category given S={m}: merged DM vs beta-binomial")
bb = BetaBinomialParams(params.shapes[0], R - params.shapes[0], m)
for k in range(m + 1):
    merged = log_sum_exp(
        [
            dirichlet_multinomial_log_pmf(params, m, CountVector([k, j, m - k - j]))
            for j in range(m - k + 1)
        ]
    )
    print(f"  k={k}: merged {math.exp(merged):.6f}  beta-binomial "
          f"{math.exp(beta_binomial_log_pmf(bb, k)):.6f}")
