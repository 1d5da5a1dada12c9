"""countcomp: distributions on counts and compositions.

The library covers the Dirichlet family and its ratio / log-ratio
push-forwards on the open simplex, the Poisson-Gamma count chain
(negative binomial totals, multinomial conditionals,
Dirichlet-multinomial and beta-binomial marginals), the mass function of
a normalized count, and a verification suite that mechanically checks
every identity connecting them.

The suite lives in ``countcomp.checks``; its public names are
``run_all``, ``all_passed`` and ``CheckReport``.  It computes its own
chi-square, Gamma and KS tails: scipy is a test and benchmark oracle,
not a runtime dependency.  The suite's names are loaded on first access,
so importing the package does not import the suite.
"""

from .distributions import (
    AggregatedValueMass,
    BetaBinomialParams,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    alr_dirichlet_log_pdf,
    beta_binomial_log_pmf,
    dirichlet_log_pdf,
    dirichlet_multinomial_log_pmf,
    dirichlet_sample,
    gamma_sample,
    inverted_dirichlet_log_pdf,
    multinomial_log_pmf,
    multinomial_sample,
    nb_truncation_bound,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
    normalized_nb_log_pmf,
    normalized_nb_value_pmf,
    poisson_sample,
)
from .simplex import (
    Composition,
    LogRatioVector,
    RatioVector,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_forward,
    log_ratio_inverse,
    ratio_forward,
    ratio_inverse,
)
from .special import (
    log_beta,
    log_gamma,
    log_multivariate_beta,
    log_sum_exp,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedValueMass",
    "BetaBinomialParams",
    "CheckReport",
    "Composition",
    "CountVector",
    "DirichletParams",
    "GammaMixtureParams",
    "LogRatioVector",
    "RatioVector",
    "all_passed",
    "alr_dirichlet_log_pdf",
    "beta_binomial_log_pmf",
    "dirichlet_log_pdf",
    "dirichlet_multinomial_log_pmf",
    "dirichlet_sample",
    "gamma_sample",
    "inverted_dirichlet_log_pdf",
    "log_beta",
    "log_det_jacobian_log_ratio_inverse",
    "log_det_jacobian_ratio_inverse",
    "log_gamma",
    "log_multivariate_beta",
    "log_ratio_forward",
    "log_ratio_inverse",
    "log_sum_exp",
    "multinomial_log_pmf",
    "multinomial_sample",
    "nb_truncation_bound",
    "negative_binomial_log_pmf",
    "negative_binomial_sample_via_mixture",
    "normalized_nb_log_pmf",
    "normalized_nb_value_pmf",
    "poisson_sample",
    "ratio_forward",
    "ratio_inverse",
    "run_all",
]


def __getattr__(name):
    # The names of __all__ not imported above are the suite's (PEP 562):
    # importing ``checks`` waits until one is used.
    if name in __all__:
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
