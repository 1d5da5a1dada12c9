"""The argument rules of ``countcomp._rules`` through the public API.

Every scalar argument that must be a finite real > 0 is read by one
rule, so each (call, argument) row below meets every bad value with a
``ValueError`` whose message starts with the argument's name.  Only real
numbers are numbers: bools, text, complex numbers and dates are refused
everywhere, as are ints past the float64 range where a float is read.
"""

import datetime
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import countcomp
from countcomp import (
    BetaBinomialParams,
    Composition,
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
    log_gamma,
    log_ratio_forward,
    log_ratio_inverse,
    log_sum_exp,
    multinomial_log_pmf,
    multinomial_sample,
    nb_truncation_bound,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
    normalized_nb_log_pmf,
    normalized_nb_value_pmf,
    poisson_sample,
    ratio_forward,
    ratio_inverse,
)
from countcomp._rules import RowError
from countcomp.checks import run_all
from countcomp.simplex import (
    LogRatioVector,
    RatioVector,
    composition_rows,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_rows,
    ratio_rows,
)
from countcomp.distributions import (
    count_rows,
    dirichlet_multinomial_log_pmf_rows,
    multinomial_log_pmf_rows,
    negative_binomial_log_pmf_rows,
    normalized_nb_log_pmf_rows,
)


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
BAD_REALS = ["3", True, 1 + 0j, np.datetime64("2020-01-01"), math.nan, math.inf, -math.inf,
             0.0, -1.0]


@pytest.mark.parametrize("value", BAD_REALS, ids=repr)
@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_refused_by_name(row, value):
    call, name = POSITIVE_REALS[row]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be a ")


@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_past_the_float_range_refused_by_name(row):
    call, name = POSITIVE_REALS[row]
    with pytest.raises(ValueError) as info:
        call(10**400)
    assert str(info.value) == f"{name} must be a real number within the float64 range"


@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_accepted(row):
    call, _ = POSITIVE_REALS[row]
    call(2.5)
    call(np.float64(2.5))
    call(2)
    call(Fraction(5, 2))


@pytest.mark.parametrize("value", [[1.0, 2.0], (2.5,), np.array([2.5]), [1.0, [2.0, 3.0]]],
                         ids=["list", "tuple", "array", "ragged"])
@pytest.mark.parametrize("row", POSITIVE_REALS)
def test_positive_real_sequence_refused_by_class(row, value):
    # A sequence is the wrong class for a scalar argument: a TypeError that
    # names the argument and the class it needs, not float()'s own.
    call, name = POSITIVE_REALS[row]
    with pytest.raises(TypeError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a real number (float), not {type(value).__name__}"


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
    # A list that mixes bools with numbers would make a numeric array.
    "CountVector mixed": (lambda: CountVector([True, 2]), "CountVector entries must be integers"),
    "CountVector numpy mixed": (lambda: CountVector([2, np.False_]),
                                "CountVector entries must be integers"),
    "DirichletParams mixed": (lambda: DirichletParams([True, 2.0]),
                              "DirichletParams entries must be real numbers"),
    "Composition mixed": (lambda: Composition([0.5, 0.5, False]),
                          "Composition entries must be real numbers"),
    "RatioVector mixed": (lambda: RatioVector([np.True_, 1.0]),
                          "RatioVector entries must be real numbers"),
    "LogRatioVector mixed": (lambda: LogRatioVector([1.0, True]),
                             "LogRatioVector entries must be real numbers"),
    "shape vector mixed": (lambda: dirichlet_multinomial_log_pmf([True, 2.0], 1, CountVector([1, 0])),
                           "shape vector entries must be real numbers"),
    "log_sum_exp mixed": (lambda: log_sum_exp([True, 1.0]), "log_sum_exp entries must be real numbers"),
}


@pytest.mark.parametrize("row", BOOLS)
def test_bools_are_not_numbers(row):
    call, message = BOOLS[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# The batch rules scan a list input for bools, and name the first row
# that holds one: (call, row, message).
BOOL_ROWS = {
    "count_rows": (lambda: count_rows([[1, 2], [True, 2]]), 1, "CountVector entries must be integers"),
    "count_rows floats": (lambda: count_rows([[1.0, 2.0], [3.0, 4.0], [1.0, np.True_]]), 2,
                          "CountVector entries must be integers"),
    "composition_rows": (lambda: composition_rows([[0.5, 0.5], [1.0, False]]),
                         1, "Composition entries must be real numbers"),
    "ratio_rows array row": (lambda: ratio_rows([np.array([True, False]), [1, 2]]), 0,
                             "RatioVector entries must be real numbers"),
    "log_ratio_rows": (lambda: log_ratio_rows([[1.0], [2.0], [False]]), 2,
                       "LogRatioVector entries must be real numbers"),
}


@pytest.mark.parametrize("row", BOOL_ROWS)
def test_batch_rules_name_the_first_row_with_a_bool(row):
    call, index, message = BOOL_ROWS[row]
    with pytest.raises(RowError) as info:
        call()
    assert (info.value.row, str(info.value)) == (index, message)


# Complex numbers and dates, in arrays of their own dtype and as entries
# of object arrays, and ints past the float64 range: (call, message).
NOT_REALS = {
    "CountVector complex": (lambda: CountVector([1 + 1j, 2]),
                            "CountVector entries must be integers"),
    "log_sum_exp complex": (lambda: log_sum_exp([1 + 5j, 2]),
                            "log_sum_exp entries must be real numbers"),
    "DirichletParams complex": (lambda: DirichletParams([1 + 2j, 1]),
                                "DirichletParams entries must be real numbers"),
    "DirichletParams object complex": (
        lambda: DirichletParams(np.array([1.0, 1 + 1j], dtype=object)),
        "DirichletParams entries must be real numbers"),
    "Composition complex": (lambda: Composition([0.5 + 0j, 0.5]),
                            "Composition entries must be real numbers"),
    "Composition datetime64": (lambda: Composition(np.array(["2020-01-01", "2020-01-02"],
                                                            dtype="datetime64[D]")),
                               "Composition entries must be real numbers"),
    "Composition object date": (lambda: Composition([0.5, datetime.date(2020, 1, 1)]),
                                "Composition entries must be real numbers"),
    "log_sum_exp timedelta64": (lambda: log_sum_exp(np.array([1, 2], dtype="m8[s]")),
                                "log_sum_exp entries must be real numbers"),
    "log_gamma complex": (lambda: log_gamma(1 + 0j),
                          "log_gamma argument must be a real number, got (1+0j)"),
    "DirichletParams past float64": (lambda: DirichletParams([10**400, 1]),
                                     "DirichletParams entries must lie within the float64 range"),
    "CountVector past float64": (lambda: CountVector([1, 10**400]),
                                 "CountVector entries must lie within the float64 range"),
    "log_sum_exp past float64": (lambda: log_sum_exp([-10**400, 1]),
                                 "log_sum_exp entries must lie within the float64 range"),
}


@pytest.mark.parametrize("row", NOT_REALS)
def test_complex_numbers_dates_and_huge_ints_refused(row):
    call, message = NOT_REALS[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_row_past_the_float_range_named():
    with pytest.raises(RowError) as info:
        count_rows([[1, 2], [3, 4], [5, 10**400]])
    assert (info.value.row, str(info.value)) == (
        2, "CountVector entries must lie within the float64 range")


# A component and a total m are counts; the totals of a batch are one m or
# one per row.  (call, message)
HALF = Composition([0.5, 0.5])
MIX = GammaMixtureParams([1.0, 2.0], 1.0)
COUNT_ARGUMENTS = {
    "normalized_nb_log_pmf component": (lambda: normalized_nb_log_pmf(MIX, 0.5, 1, 2),
                                        "component must be a non-negative integer, got 0.5"),
    "normalized_nb_log_pmf component bool": (lambda: normalized_nb_log_pmf(MIX, True, 1, 2),
                                             "component must be a non-negative integer, got True"),
    "normalized_nb_log_pmf_rows component": (
        lambda: normalized_nb_log_pmf_rows(MIX, True, [1], [2]),
        "component must be a non-negative integer, got True"),
    "normalized_nb_value_pmf component": (lambda: normalized_nb_value_pmf(MIX, 0.5, (1, 2)),
                                          "component must be a non-negative integer, got 0.5"),
    "multinomial_log_pmf m bool": (lambda: multinomial_log_pmf(True, HALF, CountVector([1, 0])),
                                   "m must be a non-negative integer, got True"),
    "multinomial_log_pmf m text": (lambda: multinomial_log_pmf("2", HALF, CountVector([1, 1])),
                                   "m must be a non-negative integer, got '2'"),
    "dirichlet_multinomial_log_pmf m bool": (
        lambda: dirichlet_multinomial_log_pmf([1, 1], True, CountVector([1, 0])),
        "m must be a non-negative integer, got True"),
    "multinomial_log_pmf_rows m bool": (lambda: multinomial_log_pmf_rows(True, HALF, [[1, 0]]),
                                        "m entries must be integers"),
    "dirichlet_multinomial_log_pmf_rows m text": (
        lambda: dirichlet_multinomial_log_pmf_rows([1, 1], ["2"], [[1, 1]]),
        "m entries must be integers"),
    "multinomial_log_pmf_rows m shape": (
        lambda: multinomial_log_pmf_rows([2, 2, 2], HALF, [[1, 1], [2, 0]]),
        "m must be one total or 2 totals, got shape (3,)"),
}


@pytest.mark.parametrize("row", COUNT_ARGUMENTS)
def test_components_and_totals_read_as_counts(row):
    call, message = COUNT_ARGUMENTS[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_totals_past_int64_still_compared_exactly():
    x = CountVector([2**62, 2**62])
    with pytest.raises(ValueError, match=f"^counts sum to {2**63}, expected total m={2**63 + 1}$"):
        multinomial_log_pmf(2**63 + 1, HALF, x)
    batch = multinomial_log_pmf_rows([2**63], HALF, [[2**62, 2**62]])
    assert multinomial_log_pmf(2**63, HALF, x) == batch[0]


def test_infinite_count_refused_by_name():
    with pytest.raises(ValueError, match="^m must be a non-negative integer, got inf$"):
        negative_binomial_log_pmf(2.0, 0.5, math.inf)


# The value of normalized_nb_value_pmf is a Fraction or a (k, m) pair
# of counts, read by one rule: (value, error class, message).
_PAIR_OR_FRACTION = "value must be a fractions.Fraction or a (k, m) pair, not "
VALUE_FORMS = {
    "float": (0.5, TypeError, _PAIR_OR_FRACTION + "float"),
    "text": ("1/2", TypeError, _PAIR_OR_FRACTION + "str"),
    "ndarray": (np.array([1, 2]), TypeError, _PAIR_OR_FRACTION + "ndarray"),
    "None": (None, TypeError, _PAIR_OR_FRACTION + "NoneType"),
    "three entries": ((1, 2, 3), ValueError, "value must be a (k, m) pair, got length 3"),
    "one entry": ([1], ValueError, "value must be a (k, m) pair, got length 1"),
    "text numerator": (("1", 2), ValueError, "value numerator must be a non-negative integer, got '1'"),
    # A value outside [0, 1] is shown reduced, and a whole one as an int.
    "whole pair": ((3, 1), ValueError, "value must lie in [0, 1], got 3"),
    "unreduced pair": ((6, 4), ValueError, "value must lie in [0, 1], got 3/2"),
    "whole Fraction": (Fraction(6, 2), ValueError, "value must lie in [0, 1], got 3"),
    "negative Fraction": (Fraction(-1, 2), ValueError, "value must lie in [0, 1], got -1/2"),
}


@pytest.mark.parametrize("row", VALUE_FORMS)
def test_value_pmf_reads_value_by_one_rule(row):
    value, error, message = VALUE_FORMS[row]
    with pytest.raises(error) as info:
        normalized_nb_value_pmf(MIX, 0, value)
    assert type(info.value) is error and str(info.value) == message


def test_value_pmf_pair_forms_agree():
    forms = [(1, 2), [1, 2], Fraction(1, 2), (np.int64(2), 4.0)]
    assert len({normalized_nb_value_pmf(MIX, 0, value) for value in forms}) == 1


@pytest.mark.parametrize("pair", [(2, 4), (0, 3), (5, 5), (6, 9), (0, 1)])
def test_value_pmf_reduces_a_pair_as_fraction_does(pair):
    assert normalized_nb_value_pmf(MIX, 0, pair) == normalized_nb_value_pmf(MIX, 0, Fraction(*pair))


# p of the negative binomial is named as every other argument is, not by
# the function that first read it: (call, message).
NB_P = {
    "nb_truncation_bound": (lambda: nb_truncation_bound(2.0, 1.0), "p must lie in (0, 1), got 1.0"),
    "nb_pmf": (lambda: negative_binomial_log_pmf(2.0, 1.5, 3), "p must lie in (0, 1), got 1.5"),
    "nb_pmf_rows nan": (lambda: negative_binomial_log_pmf_rows(2.0, math.nan, [3]),
                        "p must lie in (0, 1), got nan"),
    "nb_pmf zero": (lambda: negative_binomial_log_pmf(2.0, 0, 3), "p must lie in (0, 1), got 0.0"),
}


@pytest.mark.parametrize("row", NB_P)
def test_nb_p_refused_by_name(row):
    call, message = NB_P[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Arguments read by the count rule, which once failed in unrelated ways:
# (call, message).
COUNTS_READ = {
    "ratio log-det n text": (lambda: log_det_jacobian_ratio_inverse(RatioVector([1.0]), "3"),
                             "n must be a non-negative integer, got '3'"),
    "log-ratio log-det n": (lambda: log_det_jacobian_log_ratio_inverse(LogRatioVector([1.0]), 2.5),
                            "n must be a non-negative integer, got 2.5"),
    "ratio log-det n bool": (lambda: log_det_jacobian_ratio_inverse(RatioVector([1.0]), True),
                             "n must be a non-negative integer, got True"),
    "run_all seed": (lambda: run_all(2.5, "quick"), "seed must be a non-negative integer, got 2.5"),
    "run_all negative seed": (lambda: run_all(-1, "quick"),
                              "seed must be a non-negative integer, got -1"),
}


@pytest.mark.parametrize("row", COUNTS_READ)
def test_counts_read_by_the_count_rule(row):
    call, message = COUNTS_READ[row]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_integral_float_n_is_read_as_the_count():
    y = RatioVector([0.4, 0.6])
    assert log_det_jacobian_ratio_inverse(y, 3.0) == log_det_jacobian_ratio_inverse(y, 3)
    w = LogRatioVector([0.4, 0.6])
    assert log_det_jacobian_log_ratio_inverse(w, 3.0) == log_det_jacobian_log_ratio_inverse(w, 3)


# A value-object argument is never built from entries: given anything
# else, each public entry raises a TypeError naming the argument and the
# class it expects.  (call, message), one row per (function, argument).
_DIR = DirichletParams([1.0, 1.0])
_HALF = Composition([0.5, 0.5])
VALUE_OBJECT_ARGS = {
    "ratio_forward x": (lambda: ratio_forward([0.5, 0.5]), "x must be a Composition, not list"),
    "ratio_inverse y": (lambda: ratio_inverse(np.array([1.0])),
                        "y must be a RatioVector, not ndarray"),
    "log_ratio_forward x": (lambda: log_ratio_forward(RatioVector([1.0])),
                            "x must be a Composition, not RatioVector"),
    "log_ratio_inverse y": (lambda: log_ratio_inverse([0.5]),
                            "y must be a LogRatioVector, not list"),
    "log_det_jacobian_ratio_inverse y": (lambda: log_det_jacobian_ratio_inverse([0.5], 2),
                                         "y must be a RatioVector, not list"),
    "log_det_jacobian_log_ratio_inverse y": (
        lambda: log_det_jacobian_log_ratio_inverse(RatioVector([0.5]), 2),
        "y must be a LogRatioVector, not RatioVector"),
    "dirichlet_log_pdf params": (lambda: dirichlet_log_pdf([1, 1], _HALF),
                                 "params must be a DirichletParams, not list"),
    "dirichlet_log_pdf x": (lambda: dirichlet_log_pdf(_DIR, [0.5, 0.5]),
                            "x must be a Composition, not list"),
    "inverted_dirichlet_log_pdf params": (
        lambda: inverted_dirichlet_log_pdf((1, 1), RatioVector([0.5])),
        "params must be a DirichletParams, not tuple"),
    "inverted_dirichlet_log_pdf y": (lambda: inverted_dirichlet_log_pdf(_DIR, [0.5]),
                                     "y must be a RatioVector, not list"),
    "alr_dirichlet_log_pdf params": (
        lambda: alr_dirichlet_log_pdf(GammaMixtureParams([1, 1], 1.0), LogRatioVector([0.5])),
        "params must be a DirichletParams, not GammaMixtureParams"),
    "alr_dirichlet_log_pdf y": (lambda: alr_dirichlet_log_pdf(_DIR, RatioVector([0.5])),
                                "y must be a LogRatioVector, not RatioVector"),
    "dirichlet_sample params": (lambda: dirichlet_sample([1.0, 1.0], _rng()),
                                "params must be a DirichletParams, not list"),
    "multinomial_log_pmf probs": (lambda: multinomial_log_pmf(2, [0.5, 0.5], [1, 1]),
                                  "probs must be a Composition, not list"),
    "multinomial_log_pmf x": (lambda: multinomial_log_pmf(2, _HALF, [1, 1]),
                              "x must be a CountVector, not list"),
    "multinomial_sample probs": (lambda: multinomial_sample(2, [0.5, 0.5], _rng()),
                                 "probs must be a Composition, not list"),
    "dirichlet_multinomial_log_pmf x": (lambda: dirichlet_multinomial_log_pmf([1, 1], 2, (1, 1)),
                                        "x must be a CountVector, not tuple"),
    "beta_binomial_log_pmf params": (lambda: beta_binomial_log_pmf((1, 1, 2), 1),
                                     "params must be a BetaBinomialParams, not tuple"),
    "normalized_nb_log_pmf params": (lambda: normalized_nb_log_pmf(([1, 1], 1.0), 0, 1, 2),
                                     "params must be a GammaMixtureParams, not tuple"),
    "normalized_nb_value_pmf params": (lambda: normalized_nb_value_pmf(([1, 1], 1.0), 0, (1, 2)),
                                       "params must be a GammaMixtureParams, not tuple"),
}
VALUE_OBJECTS = ("Composition", "RatioVector", "LogRatioVector", "CountVector",
                 "DirichletParams", "GammaMixtureParams", "BetaBinomialParams")


@pytest.mark.parametrize("row", VALUE_OBJECT_ARGS)
def test_value_object_arguments_refuse_other_classes(row):
    call, message = VALUE_OBJECT_ARGS[row]
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_every_value_object_argument_has_a_row():
    # Each parameter of a public function annotated with a value object.
    annotated = {
        f"{name} {param.name}"
        for name in countcomp.__all__
        if inspect.isfunction(fn := getattr(countcomp, name))
        for param in inspect.signature(fn).parameters.values()
        if param.annotation in VALUE_OBJECTS
    }
    assert annotated == set(VALUE_OBJECT_ARGS)
