"""The argument rules of ``countcomp._rules`` through the public API.

Every scalar argument that must be a finite real > 0 is read by one
rule, so each (call, argument) row below meets every bad value with a
``ValueError`` whose message starts with the argument's name.  Bools
are not numbers anywhere, and the public checks read their arguments by
the same rules.
"""

import math

import numpy as np
import pytest

from countcomp import (
    BetaBinomialParams,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    gamma_sample,
    log_gamma,
    log_sum_exp,
    nb_truncation_bound,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
    poisson_sample,
)
from countcomp.checks import (
    check_beta_binomial_merge,
    check_conditional_multinomial,
    check_transform_density,
    enumerate_compositions,
)
from countcomp.distributions import negative_binomial_log_pmf_rows


def _rng():
    return np.random.default_rng(0)


# (call of one bad value, the argument's name in the message)
POSITIVE_REALS = {
    "log_gamma": (log_gamma, "log_gamma argument"),
    "nb_pmf R": (lambda v: negative_binomial_log_pmf(v, 0.5, 3), "R"),
    "nb_pmf_rows R": (lambda v: negative_binomial_log_pmf_rows(v, 0.5, [3]), "R"),
    "nb_truncation_bound R": (lambda v: nb_truncation_bound(v, 0.5), "R"),
    "GammaMixtureParams scale": (lambda v: GammaMixtureParams([1.0, 2.0], v),
                                 "GammaMixtureParams scale"),
    "BetaBinomialParams a": (lambda v: BetaBinomialParams(v, 1.0, 3), "BetaBinomialParams a"),
    "BetaBinomialParams b": (lambda v: BetaBinomialParams(1.0, v, 3), "BetaBinomialParams b"),
    "gamma_sample shape": (lambda v: gamma_sample(v, 1.0, _rng()), "shape"),
    "gamma_sample scale": (lambda v: gamma_sample(1.0, v, _rng()), "scale"),
    "poisson_sample rate": (lambda v: poisson_sample(v, _rng()), "rate"),
    "nb_sample R": (lambda v: negative_binomial_sample_via_mixture(v, 1.0, _rng()), "R"),
    "nb_sample theta": (lambda v: negative_binomial_sample_via_mixture(1.0, v, _rng()), "theta"),
}
BAD_REALS = ["3", True, math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", BAD_REALS, ids=repr)
@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_refused_by_name(row, value):
    call, name = POSITIVE_REALS[row]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be a ")


@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_accepted(row):
    call, _ = POSITIVE_REALS[row]
    call(2.5)
    call(np.float64(2.5))
    call(2)


# Bools, Python's and numpy's, alone and in arrays: (call, message).
BOOLS = {
    "nb_pmf R": (lambda: negative_binomial_log_pmf(True, 0.5, 3),
                 "R must be a real number, got True"),
    "nb_pmf R numpy": (lambda: negative_binomial_log_pmf(np.True_, 0.5, 3),
                       "R must be a real number, got np.True_"),
    "nb_pmf m": (lambda: negative_binomial_log_pmf(2.0, 0.5, True),
                 "m must be a non-negative integer, got True"),
    "nb_pmf m numpy": (lambda: negative_binomial_log_pmf(2.0, 0.5, np.True_),
                       "m must be a non-negative integer, got np.True_"),
    "BetaBinomialParams m": (lambda: BetaBinomialParams(1, 1, True),
                             "m must be a non-negative integer, got True"),
    "CountVector": (lambda: CountVector([True, False]), "CountVector entries must be integers"),
    "CountVector object": (lambda: CountVector(np.array([1, True], dtype=object)),
                           "CountVector entries must be integers"),
    "DirichletParams": (lambda: DirichletParams([True, True]),
                        "DirichletParams entries must be real numbers"),
    "DirichletParams object": (lambda: DirichletParams(np.array([1.0, np.True_], dtype=object)),
                               "DirichletParams entries must be real numbers"),
    "log_sum_exp": (lambda: log_sum_exp([True, False]), "log_sum_exp entries must be real numbers"),
}


@pytest.mark.parametrize("row", BOOLS)
def test_bools_are_not_numbers(row):
    call, message = BOOLS[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# The public checks: text is refused by the argument's rule, and an
# integral float count is read as the count.
CHECKS_REFUSE = {
    "conditional_multinomial rates": (
        lambda: check_conditional_multinomial(["1", "1"], 2, 100, _rng()),
        "rates entries must be real numbers"),
    "beta_binomial_merge r": (lambda: check_beta_binomial_merge(["1", "1"], 2),
                              "shape vector entries must be real numbers"),
    "transform_density alpha": (lambda: check_transform_density(["1", "1"], 2, 10, _rng()),
                                "alpha entries must be real numbers"),
    "conditional_multinomial m": (lambda: check_conditional_multinomial((1, 1), 2.5, 100, _rng()),
                                  "m must be a non-negative integer, got 2.5"),
    "enumerate_compositions m": (lambda: list(enumerate_compositions(2, 2.5)),
                                 "m must be a non-negative integer, got 2.5"),
}


@pytest.mark.parametrize("row", CHECKS_REFUSE)
def test_checks_read_arguments_by_the_rules(row):
    call, message = CHECKS_REFUSE[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_checks_take_integral_float_counts():
    assert len(list(enumerate_compositions(2, 2.0))) == 3
    as_float = check_conditional_multinomial((1, 1), 2.0, 100, _rng())
    assert as_float == check_conditional_multinomial((1.0, 1.0), 2, 100, _rng())
    assert check_beta_binomial_merge((1, 2), 3.0) == check_beta_binomial_merge([1.0, 2.0], 3)


def test_infinite_count_refused_by_name():
    with pytest.raises(ValueError, match="^m must be a non-negative integer, got inf$"):
        negative_binomial_log_pmf(2.0, 0.5, math.inf)
