"""Push-forwards of the Dirichlet under the ratio and log-ratio maps.

Transforming Dir(alpha) samples through the ratio map gives the
Inverted Dirichlet; through the log-ratio map, a density whose
normalizer is the same multivariate Beta function.  Each closed form
equals the Dirichlet density at the pulled-back point times the
Jacobian, and sampled moments line up with quadrature of the analytic
density.
"""

import numpy as np

from countcomp import (
    DirichletParams,
    LogRatioVector,
    RatioVector,
    alr_dirichlet_log_pdf,
    dirichlet_log_pdf,
    dirichlet_sample,
    inverted_dirichlet_log_pdf,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_inverse,
    ratio_inverse,
)
from countcomp.distributions import inverted_dirichlet_log_pdf_rows
from countcomp.simplex import ratio_forward_rows

rng = np.random.default_rng(1)
params = DirichletParams([2.0, 3.0])

# --- change of variables, pointwise -----------------------------------
y = RatioVector([0.8])
direct = inverted_dirichlet_log_pdf(params, y)
pulled = dirichlet_log_pdf(params, ratio_inverse(y)) + log_det_jacobian_ratio_inverse(y, 2)
print("inverted-dirichlet log pdf :", direct)
print("dirichlet + log|det J|     :", pulled)

w = LogRatioVector([-0.4])
direct = alr_dirichlet_log_pdf(params, w)
pulled = dirichlet_log_pdf(params, log_ratio_inverse(w)) + log_det_jacobian_log_ratio_inverse(w, 2)
print("alr-dirichlet log pdf      :", direct)
print("dirichlet + log|det J|     :", pulled)

# --- sampled vs analytic moments ---------------------------------------
# E[Y] for the ratio of a Dir(2, 3) pair is alpha_1 / (alpha_2 - 1) = 1.
n_draws = 50_000
draws = ratio_forward_rows(dirichlet_sample(params, rng, size=n_draws))[0][:, 0]
print(f"\nsampled mean of x1/x2 over {n_draws} draws:", draws.mean())


def ratio_density_t(t):
    """The density of Y = x1/x2 in the bounded coordinate t = Y / (1 + Y)
    on a grid of t: y = t / (1 - t), dy = dt / (1 - t)^2."""
    y = t / (1.0 - t)
    return np.exp(inverted_dirichlet_log_pdf_rows(params.alpha, y[:, None])) / (1.0 - t) ** 2


def simpson(f, x):
    """Composite Simpson's rule for samples f on an odd number of equally
    spaced points x: weights h/3 times 1, 4, 2, 4, ..., 2, 4, 1."""
    return (x[1] - x[0]) / 3 * (f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])


# Simpson's rule on uniform grids of t, the ends nudged 1e-9 inward;
# both integrands vanish at t = 1 for alpha_2 = 3.
grid = np.linspace(1e-9, 1.0 - 1e-9, 20_001)
mean_by_quadrature = simpson(grid / (1.0 - grid) * ratio_density_t(grid), grid)
print("mean by quadrature of the analytic density:", mean_by_quadrature)

# --- sampled tail probability vs quadrature ----------------------------
tail = (draws > 2.0).mean()
upper = np.linspace(2.0 / 3.0, 1.0 - 1e-9, 20_001)  # y = 2 maps to t = y / (1 + y)
tail_by_quadrature = simpson(ratio_density_t(upper), upper)
print(f"P(Y > 2): sampled {tail:.4f}, quadrature {tail_by_quadrature:.4f}")
