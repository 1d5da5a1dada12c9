"""The normalized count Y = X_1 / S and its mass function.

The pair mass at (k, m) factorizes as NB(R, p) at m times
BetaBinomial(r_1, R - r_1, m) at k.  X_1 ~ NB(r_1, p) is independent of
the rest, NB(R - r_1, p), so that equals NB(r_1)(k) * NB(R - r_1)(m - k),
the form the library computes.  Note the m = 0 atom: the total is
zero with probability (1-p)^R, where the ratio is undefined; on the
strict support m >= 1 the masses sum to 1 - (1-p)^R, so this library
keeps the atom on the pair space (with k = 0) to conserve total mass.

A given rational value is hit by many pairs (1/2 by (1,2), (2,4), ...);
the value-aggregated PMF sums them under an explicit truncation bound.
"""

import math
from fractions import Fraction

from countcomp import (
    GammaMixtureParams,
    log_sum_exp,
    nb_truncation_bound,
    normalized_nb_log_pmf,
    normalized_nb_value_pmf,
)

params = GammaMixtureParams([1.0, 1.0], 1.0)  # R = 2, p = 1/2
R, p = params.total_shape, params.success_prob

atom = math.exp(normalized_nb_log_pmf(params, 0, 0, 0))
print(f"m=0 atom mass (1-p)^R          : {atom:.6f}")

print("\npair masses for small totals")
for m in range(4):
    masses = [math.exp(normalized_nb_log_pmf(params, 0, k, m)) for k in range(m + 1)]
    print(f"  m={m}: {[f'{v:.5f}' for v in masses]}")

bound = nb_truncation_bound(R, p, 1e-12)
total = log_sum_exp(
    [normalized_nb_log_pmf(params, 0, k, m) for m in range(bound + 1) for k in range(m + 1)]
)
print(f"\ntruncation bound M={bound} (NB tail < 1e-12)")
print(f"total pair mass up to M        : {math.exp(total):.12f}")
strict = log_sum_exp(
    [normalized_nb_log_pmf(params, 0, k, m) for m in range(1, bound + 1) for k in range(m + 1)]
)
print(f"mass on the strict m>=1 support: {math.exp(strict):.12f}  (= 1 - (1-p)^R = {1 - atom:.12f})")

print("\nvalue-aggregated masses (each sums its pairs up to M)")
for value in (Fraction(0, 1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1)):
    out = normalized_nb_value_pmf(params, 0, value)
    print(f"  Y = {value}: mass {math.exp(out.log_mass):.6f}  (bound {out.truncation_bound})")

few = [normalized_nb_log_pmf(params, 0, j, 2 * j) for j in range(1, 6)]
print("  first five pairs for Y=1/2 sum to", f"{math.exp(log_sum_exp(few)):.6f}")
