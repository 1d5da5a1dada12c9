"""The row validators and the one-point log-gamma map at the edges of
their domains.

Each validator first runs an accept test (``_rules._extremes``: Python
builtins for a few entries, numpy reductions for many) and builds its
ordered per-rule masks only when that test fails.  The table below pins,
for inputs on both sides of every rule, the row and message each
validator raises, and checks that every accepted row comes back
unchanged; ``TestAcceptRoutes`` checks that an edge row gets the same
verdict on its own as inside a batch large enough for numpy.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from countcomp import (
    BetaBinomialParams,
    Composition,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    RatioVector,
    beta_binomial_log_pmf,
    dirichlet_multinomial_log_pmf,
    finite_difference_jacobian,
    gamma_sample,
    log_beta,
    log_gamma,
    log_sum_exp,
    nb_truncation_bound,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
    normalized_nb_log_pmf,
    poisson_sample,
    rank_one_update_det,
)
from countcomp._rules import _PYTHON_SCAN_MAX
from countcomp.distributions import (
    _count_entries,
    alr_dirichlet_log_pdf_rows,
    count_rows,
    dirichlet_log_pdf_rows,
    inverted_dirichlet_log_pdf_rows,
    negative_binomial_log_pmf_rows,
    normalized_nb_log_pmf_rows,
)
from countcomp.simplex import (
    RowError,
    _checked_compositions,
    _positive_rows,
    composition_rows,
    log_ratio_rows,
    ratio_inverse_rows,
    ratio_rows,
)
from countcomp.special import (
    _log_gamma_each,
    _log_gamma_map,
    log_multivariate_beta,
    log_multivariate_beta_rows,
    log_sum_exp_rows,
)

NAN, INF = math.nan, math.inf
TINY = 5e-324  # the smallest subnormal
NORMAL_MIN = sys.float_info.min
FLOAT_MAX = sys.float_info.max
HALF_MAX = FLOAT_MAX / 2  # HALF_MAX + HALF_MAX is FLOAT_MAX ...
PAST_HALF_MAX = 2.0**1023  # ... and HALF_MAX + PAST_HALF_MAX rounds to inf
G3 = [0.2, 0.3, 0.5]


def _sum_edge(side: float, inside: bool) -> float:
    """The last double t on one side of 1 with |t - 1| <= 1e-9 (inside),
    or the first one past it."""
    t = 1.0 + side * 1e-9
    while abs(t - 1.0) > 1e-9:
        t = math.nextafter(t, 1.0)
    while abs(math.nextafter(t, side * 2.0) - 1.0) <= 1e-9:
        t = math.nextafter(t, side * 2.0)
    return t if inside else math.nextafter(t, side * 2.0)


# Rows [0.5, t - 0.5] that sum to t exactly, at the edges of the sum rule.
SUM_EDGES = {(side, inside): [0.5, _sum_edge(side, inside) - 0.5]
             for side in (1.0, -1.0) for inside in (True, False)}

COMP_FINITE = "Composition entries must be finite"
COMP_FLOOR = (
    "Composition entries must be strictly positive normal floats; "
    "boundary points are rejected rather than clamped"
)
RATIO_ENTRIES = "RatioVector entries must be strictly positive and finite"
RATIO_SUM = "RatioVector: the sum of the entries overflows float64"
LOG_RATIO_FINITE = "LogRatioVector entries must be finite"
COUNT_INTEGER = "CountVector entries must be integers"
COUNT_SIGN = "CountVector entries must be non-negative"
COUNT_INT64 = "CountVector entries must be below 2**63 (int64)"
DIRICHLET_ENTRIES = "DirichletParams entries must be strictly positive and finite"
DIRICHLET_SUM = "DirichletParams: the sum of the entries overflows float64"
DIRICHLET_LENGTH = "DirichletParams requires a vector of length >= 2"
M_INTEGER = "m entries must be integers"
BETA_DOMAIN = "log_multivariate_beta entries must be strictly positive and finite"
BETA_SUM = "log_multivariate_beta: the sum of the entries overflows float64"


def _uint64(*rows):
    return np.array(rows, dtype=np.uint64)


# (input, expected): expected is None where the input is accepted, else
# the (row, message) of the RowError.  The rows and messages are those
# the validators gave before they had accept tests, except where a row
# of 1e308 entries now meets the RatioVector sum rule.  Before it, such
# a row and the (1e308, 1e308, 0.5) and (max, -max) rows also warned.
ROW_CASES = {
    "composition": (composition_rows, [
        ([[0.5, NAN, 0.5]], (0, COMP_FINITE)),
        ([[0.5, INF, 0.5]], (0, COMP_FINITE)),
        ([[0.5, -INF, 1.5]], (0, COMP_FINITE)),
        ([[INF, -INF, 0.5]], (0, COMP_FINITE)),
        ([[-0.0, 0.5, 0.5]], (0, COMP_FLOOR)),
        ([[TINY, 0.5, 0.5]], (0, COMP_FLOOR)),
        ([[0.0, 0.5, 0.5]], (0, COMP_FLOOR)),
        ([[-0.1, 0.6, 0.5]], (0, COMP_FLOOR)),
        ([[NORMAL_MIN, 0.5, 0.5]], None),
        ([[0.2, 0.3, 0.5 + 5e-10]], None),
        ([[0.2, 0.3, 0.5 + 2e-9]],
         (0, "Composition entries sum to 1.0000000020000002, more than 1e-9 away from 1")),
        ([[1.5, 1e-300, 0.5]], (0, "Composition entries sum to 2.0, more than 1e-9 away from 1")),
        ([[1e308, 1e308, 0.5]], (0, "Composition entries sum to inf, more than 1e-9 away from 1")),
        # The first bad row breaks a later rule than a later bad row.
        ([G3, [0.2, 0.3, 0.6], [NAN, 0.5, 0.5]],
         (1, "Composition entries sum to 1.1, more than 1e-9 away from 1")),
        ([G3, G3, [0.5, 0.5, 1e-310], [0.5, NAN, 0.5]], (2, COMP_FLOOR)),
        ([G3, [0.7, 0.3, 1e-300], [0.25, 0.25, 0.5]], None),
    ]),
    "ratio": (ratio_rows, [
        ([[NAN, 1.0]], (0, RATIO_ENTRIES)),
        ([[1.0, NAN]], (0, RATIO_ENTRIES)),
        ([[INF, 1.0]], (0, RATIO_ENTRIES)),
        ([[-INF, 1.0]], (0, RATIO_ENTRIES)),
        ([[INF, -INF]], (0, RATIO_ENTRIES)),
        ([[-0.0, 1.0]], (0, RATIO_ENTRIES)),
        ([[0.0, 1.0]], (0, RATIO_ENTRIES)),
        ([[-1.0, 1.0]], (0, RATIO_ENTRIES)),
        ([[TINY, 1.0]], None),
        ([[FLOAT_MAX]], None),
        ([[8e307, 8e307]], None),
        ([[1e308, 1e308]], (0, RATIO_SUM)),
        ([[1.0, 2.0], [1e308, 1e308], [NAN, 1.0]], (1, RATIO_SUM)),
        ([[1.0, 2.0], [1.0, 0.0], [1e308, 1e308]], (1, RATIO_ENTRIES)),
        ([[1.0, 2.0], [1e300, TINY], [3.0, 4.0]], None),
    ]),
    "log_ratio": (log_ratio_rows, [
        ([[NAN, 1.0]], (0, LOG_RATIO_FINITE)),
        ([[1.0, NAN]], (0, LOG_RATIO_FINITE)),
        ([[INF, 1.0]], (0, LOG_RATIO_FINITE)),
        ([[-INF, 1.0]], (0, LOG_RATIO_FINITE)),
        ([[INF, -INF]], (0, LOG_RATIO_FINITE)),
        ([[-0.0, 1.0]], None),
        ([[TINY, -1.0]], None),
        ([[700.0, -700.0]], None),
        ([[FLOAT_MAX, -FLOAT_MAX]], None),
        ([[1.0, 2.0], [1e308, 1e308], [NAN, 1.0]], (2, LOG_RATIO_FINITE)),
        ([[1.0, 2.0], [-INF, 0.0], [INF, 1.0]], (1, LOG_RATIO_FINITE)),
    ]),
    "count": (count_rows, [
        ([[1.0, NAN]], (0, COUNT_INTEGER)),
        ([[1.0, INF]], (0, COUNT_INTEGER)),
        ([[1.0, -INF]], (0, COUNT_INTEGER)),
        ([[-0.0, 2.0]], None),
        ([[TINY, 1.0]], (0, COUNT_INTEGER)),
        ([[0.5, 1.0]], (0, COUNT_INTEGER)),
        ([[-1.0, 2.0]], (0, COUNT_SIGN)),
        ([[-1.5, 2.0]], (0, COUNT_INTEGER)),
        ([[2.0**63, 1.0]], (0, COUNT_INT64)),
        ([[2.0**63 - 1024, 1.0]], None),
        ([[2.0**52 + 1, 3.0]], None),
        ([[2.0**52 - 0.5, 3.0]], (0, COUNT_INTEGER)),
        ([[0, 3]], None),
        ([[-1, 3]], (0, COUNT_SIGN)),
        (_uint64([2**63, 1]), (0, COUNT_INT64)),
        (_uint64([2**64 - 1, 1]), (0, COUNT_INT64)),
        (_uint64([2**63 - 1, 1]), None),
        (_uint64([1, 2], [3, 4], [2**63, 0]), (2, COUNT_INT64)),
        (np.array([[2**63 - 1, -5]], dtype=np.int64), (0, COUNT_SIGN)),
        (np.array([[3, 4]], dtype=np.int8), None),
        ([[1, 2], [3, -1], [0.5, 1]], (1, COUNT_SIGN)),
        ([[1, 2], [0.5, -1], [-1, 1]], (1, COUNT_INTEGER)),
        ([[1, 2], [2.0**64, 1], [0.5, 1]], (1, COUNT_INT64)),
        ([[1, 2], [2**64, 1], [-1, 1]], (1, COUNT_INT64)),
        ([["3", "1"]], (0, COUNT_INTEGER)),
        (np.array([[b"3"]]), (0, COUNT_INTEGER)),
        (np.array([[2**64, 1]], dtype=object), (0, COUNT_INT64)),
    ]),
    # The parameter vectors, as DirichletParams checks its one row.
    "positive": (lambda v: _positive_rows(v, "DirichletParams", 2), [
        ([[1.0, NAN]], (0, DIRICHLET_ENTRIES)),
        ([[NAN, 1.0]], (0, DIRICHLET_ENTRIES)),
        ([[1.0, INF]], (0, DIRICHLET_ENTRIES)),
        ([[1.0, -INF]], (0, DIRICHLET_ENTRIES)),
        ([[INF, -INF]], (0, DIRICHLET_ENTRIES)),
        ([[-0.0, 1.0]], (0, DIRICHLET_ENTRIES)),
        ([[0.0, 1.0]], (0, DIRICHLET_ENTRIES)),
        ([[-1.0, 1.0]], (0, DIRICHLET_ENTRIES)),
        ([[1e308, 1e308, NAN]], (0, DIRICHLET_ENTRIES)),
        ([[TINY, 1.0]], None),
        ([[FLOAT_MAX, 1.0]], None),
        ([[1e308, 1e308]], (0, DIRICHLET_SUM)),
        ([[1.0]], (0, DIRICHLET_LENGTH)),
        ([1.0, 2.0], (0, DIRICHLET_LENGTH)),
        ([[[1.0, 2.0]]], (0, DIRICHLET_LENGTH)),
        # The first bad row breaks a later rule than a later bad row.
        ([[1.0, 2.0], [1e308, 1e308], [NAN, 1.0]], (1, DIRICHLET_SUM)),
        ([[1.0, 2.0], [1.0, 0.0], [1e308, 1e308]], (1, DIRICHLET_ENTRIES)),
        ([[1.0, 2.0], [3.0, 4.0], [INF, -INF]], (2, DIRICHLET_ENTRIES)),
        # All rows together sum past float64; no one row does.
        ([[1e308, 1.0], [1e308, 1.0]], None),
    ]),
    # The totals of the batch NB and normalized-NB forms: the CountVector
    # rule on one column, named by the argument, a RowError naming the
    # first bad entry in flat order.
    "batch_count": (lambda v: _count_entries(np.asarray(v), "m"), [
        (3, None),
        (2.5, (0, M_INTEGER)),
        (-1, (0, "m entries must be non-negative")),
        (2**63, (0, "m entries must be below 2**63 (int64)")),
        ("3", (0, M_INTEGER)),
        ([0, 2**53 + 1, 2**63 - 1], None),
        ([0.0, 2.0**53 + 2], None),
        ([1, 2.5], (1, M_INTEGER)),
        ([3, -1], (1, "m entries must be non-negative")),
        ([1, 2**63], (1, "m entries must be below 2**63 (int64)")),
        (["3"], (0, M_INTEGER)),
        ([[1, 2], [3, 4]], None),
        ([[1, 2], [-3, 0.5]], (2, "m entries must be non-negative")),
    ]),
}

# Numeric text, and the edges of the sum rules: the Composition sum at
# 1 +- 1e-9 and positive entries whose sum is FLOAT_MAX or, half an ulp
# above it, rounds to inf.  Kept apart so that the cases above keep their
# positions.
MORE_ROW_CASES = {
    "composition": [
        ([SUM_EDGES[1.0, True]], None),
        ([SUM_EDGES[-1.0, True]], None),
        ([SUM_EDGES[1.0, False]], (0, f"Composition entries sum to {_sum_edge(1.0, False)!r}, "
                                      "more than 1e-9 away from 1")),
        ([SUM_EDGES[-1.0, False]], (0, f"Composition entries sum to {_sum_edge(-1.0, False)!r}, "
                                       "more than 1e-9 away from 1")),
        ([["0.5", "0.5"]], (0, "Composition entries must be real numbers")),
        (np.array([G3, [0.2, "0.3", 0.5]], dtype=object),
         (1, "Composition entries must be real numbers")),
    ],
    "ratio": [
        ([[HALF_MAX, HALF_MAX]], None),
        ([[HALF_MAX, PAST_HALF_MAX]], (0, RATIO_SUM)),
        ([["1"]], (0, "RatioVector entries must be real numbers")),
    ],
    "log_ratio": [
        ([[1e308, 1e308]], None),
        ([[b"1"]], (0, "LogRatioVector entries must be real numbers")),
    ],
    "count": [
        (np.array([["3", 1]], dtype=object), (0, COUNT_INTEGER)),
        (np.array([[1, 2], [3, b"4"]], dtype=object), (1, COUNT_INTEGER)),
    ],
    "positive": [
        ([[HALF_MAX, HALF_MAX]], None),
        ([[HALF_MAX, PAST_HALF_MAX]], (0, DIRICHLET_SUM)),
        # The numpy sum is the largest float, math.fsum overflows.
        ([[FLOAT_MAX, 2.0**969, 2.0**969]], (0, DIRICHLET_SUM)),
        ([[1.0, 2.0, 3.0], [FLOAT_MAX, 2.0**969, 2.0**969]], (1, DIRICHLET_SUM)),
        ([["2", "3"]], (0, "DirichletParams entries must be real numbers")),
        (np.array([[1.0, 2.0], [1.0, "2"]], dtype=object),
         (1, "DirichletParams entries must be real numbers")),
    ],
}

COUNT_CHECKS = ("count", "batch_count")

# Vector validators raise a plain ValueError: (input, message or None).
VECTOR_CASES = {
    "log_multivariate_beta": (log_multivariate_beta, [
        ([1.0, NAN], BETA_DOMAIN),
        ([NAN, 1.0], BETA_DOMAIN),
        ([1.0, INF], BETA_DOMAIN),
        ([-INF, 1.0], BETA_DOMAIN),
        ([INF, -INF], BETA_DOMAIN),
        ([-0.0, 1.0], BETA_DOMAIN),
        ([0.0, 1.0], BETA_DOMAIN),
        ([-1.0, 1.0], BETA_DOMAIN),
        ([TINY, 1.0], None),
        ([1e300, 1e300], None),
        ([1e308, 1e308], BETA_SUM),
        ([1.0], "log_multivariate_beta requires a vector of length >= 2"),
        ([1e306, 1.0], "log_gamma(1e+306) overflows float64"),
        # A left-to-right sum rounds down to the largest float; math.fsum,
        # which the formula takes, rounds past it.
        ([FLOAT_MAX, 2.0**969, 2.0**969], BETA_SUM),
    ]),
}


class TestValidatorAgreement:
    @pytest.mark.parametrize(
        "name, values, expected",
        [(name, v, e) for name, (_, cases) in ROW_CASES.items() for v, e in cases]
        + [(name, v, e) for name, cases in MORE_ROW_CASES.items() for v, e in cases],
    )
    def test_row_validators(self, name, values, expected):
        check = ROW_CASES[name][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is not None:
                with pytest.raises(RowError) as info:
                    check(values)
                assert (info.value.row, str(info.value)) == expected
                return
            out = check(values)
        rows = out[0] if isinstance(out, tuple) else out
        given = np.asarray(values, dtype=None if name in COUNT_CHECKS else float)
        if name == "composition":
            unchanged, totals = _checked_compositions(values)
            np.testing.assert_array_equal(unchanged, given)
            np.testing.assert_array_equal(rows, given / totals[:, None])
        else:
            assert rows.dtype == (np.int64 if name in COUNT_CHECKS else float)
            np.testing.assert_array_equal(rows, given.reshape(rows.shape))
        assert not rows.flags.writeable

    @pytest.mark.parametrize(
        "name, values, message",
        [(name, v, m) for name, (_, cases) in VECTOR_CASES.items() for v, m in cases],
    )
    def test_vector_validators(self, name, values, message):
        check = VECTOR_CASES[name][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is not None:
                with pytest.raises(ValueError) as info:
                    check(values)
                assert str(info.value) == message
                return
            out = check(values)
        lgs = [math.lgamma(a) for a in values]
        assert out == math.fsum(lgs) - math.lgamma(math.fsum(values))

    @pytest.mark.parametrize("check, n", [
        (composition_rows, 3), (ratio_rows, 2), (log_ratio_rows, 2), (count_rows, 2),
        (lambda v: _positive_rows(v, "DirichletParams", 2), 2),
    ])
    @pytest.mark.parametrize("dtype", [float, np.int64])
    def test_empty_batches(self, check, n, dtype):
        out = check(np.empty((0, n), dtype=dtype))
        rows = out[0] if isinstance(out, tuple) else out
        assert rows.shape == (0, n)

    def test_uint64_counts_past_int64(self):
        with pytest.raises(RowError, match=r"below 2\*\*63") as info:
            CountVector(np.array([2**63, 0], dtype=np.uint64))
        assert info.value.row == 0
        assert CountVector(np.array([2**63 - 1, 1], dtype=np.uint64)).total == 2**63


# Numeric text, which the scalar forms refuse ("m must be a non-negative
# integer, got '3'"), is refused by every count validator.
TEXT_COUNTS = {
    "CountVector": lambda: CountVector(["3", "1"]),
    "CountVector bytes": lambda: CountVector(np.array([b"3", b"1"])),
    "count_rows": lambda: count_rows([[1, 2], ["3", "4"]]),
    "negative_binomial_log_pmf_rows": lambda: negative_binomial_log_pmf_rows(2.0, 0.5, ["3"]),
    "normalized_nb_log_pmf_rows": lambda: normalized_nb_log_pmf_rows(
        GammaMixtureParams([1, 1], 1), 0, ["1"], ["2"]),
}


@pytest.mark.parametrize("name", TEXT_COUNTS)
def test_numeric_text_counts_refused(name):
    with pytest.raises(RowError, match="entries must be integers$") as info:
        TEXT_COUNTS[name]()
    assert info.value.row == 0


# Numeric text, which float() would parse, is refused by the parameter
# validators as by the count ones: (call, message pattern).
TEXT_PARAMETERS = {
    "DirichletParams": (lambda: DirichletParams(["2", "3"]),
                        "^DirichletParams entries must be real numbers$"),
    "GammaMixtureParams": (lambda: GammaMixtureParams(["1", "1"], "1"),
                           "^GammaMixtureParams shapes entries must be real numbers$"),
    "GammaMixtureParams scale": (lambda: GammaMixtureParams([1, 1], "1"),
                                 "^GammaMixtureParams scale must be a real number, got '1'$"),
    "negative_binomial_log_pmf": (lambda: negative_binomial_log_pmf("2", 0.5, 3),
                                  "^R must be a real number, got '2'$"),
    "CountVector object": (lambda: CountVector(np.array(["3", 1], dtype=object)),
                           "^CountVector entries must be integers$"),
    "Composition": (lambda: Composition(["0.5", "0.5"]),
                    "^Composition entries must be real numbers$"),
    "RatioVector": (lambda: RatioVector(["1"]), "^RatioVector entries must be real numbers$"),
    "BetaBinomialParams": (lambda: BetaBinomialParams("1", "2", 3),
                           "^BetaBinomialParams a must be a real number, got '1'$"),
    "poisson_sample": (lambda: poisson_sample("3", np.random.default_rng(0)),
                       "^rate must be a real number, got '3'$"),
    "gamma_sample bytes": (lambda: gamma_sample(2.0, b"1", np.random.default_rng(0)),
                           "^scale must be a real number, got b'1'$"),
    "dirichlet_log_pdf_rows": (lambda: dirichlet_log_pdf_rows(["1", "2"], [[0.5, 0.5]]),
                               "^DirichletParams entries must be real numbers$"),
    "log_gamma": (lambda: log_gamma("3"), "^log_gamma argument must be a real number, got '3'$"),
    "log_beta": (lambda: log_beta("1", "2"), "^log_multivariate_beta entries must be real numbers$"),
    "log_multivariate_beta": (lambda: log_multivariate_beta(["1", "2"]),
                              "^log_multivariate_beta entries must be real numbers$"),
    "log_sum_exp": (lambda: log_sum_exp(["1", "2"]), "^log_sum_exp entries must be real numbers$"),
    "rank_one_update_det": (lambda: rank_one_update_det(["1", "2"], [1, 1], [1, 1]),
                            "^rank_one_update_det entries must be real numbers$"),
    "finite_difference_jacobian": (
        lambda: finite_difference_jacobian(lambda p: p, ["1", "2"]),
        "^finite_difference_jacobian point entries must be real numbers$"),
    "nb_truncation_bound": (lambda: nb_truncation_bound(2.0, 0.5, "1e-12"),
                            "^tail_mass must be a real number, got '1e-12'$"),
    "negative_binomial_sample_via_mixture R": (
        lambda: negative_binomial_sample_via_mixture("3", 1.0, np.random.default_rng(0)),
        "^R must be a real number, got '3'$"),
    "negative_binomial_sample_via_mixture theta": (
        lambda: negative_binomial_sample_via_mixture(3.0, "1", np.random.default_rng(0)),
        "^theta must be a real number, got '1'$"),
}


@pytest.mark.parametrize("name", TEXT_PARAMETERS)
def test_numeric_text_parameters_refused(name):
    call, message = TEXT_PARAMETERS[name]
    with pytest.raises(ValueError, match=message):
        call()


# The scalar count arguments follow the CountVector rule: below 2**63.
MIX = GammaMixtureParams([1.0, 1.0], 1.0)
BIG_COUNTS = {
    "negative_binomial_log_pmf m": (lambda big: negative_binomial_log_pmf(2.0, 0.5, big), "m"),
    "BetaBinomialParams m": (lambda big: BetaBinomialParams(1.0, 1.0, big), "m"),
    "beta_binomial_log_pmf k": (
        lambda big: beta_binomial_log_pmf(BetaBinomialParams(1.0, 1.0, 3), big), "k"),
    "normalized_nb_log_pmf k": (lambda big: normalized_nb_log_pmf(MIX, 0, big, 3), "k"),
    "normalized_nb_log_pmf m": (lambda big: normalized_nb_log_pmf(MIX, 0, 1, big), "m"),
}


@pytest.mark.parametrize("big", [2**63, 2.0**63, 10**30])
@pytest.mark.parametrize("name", BIG_COUNTS)
def test_scalar_counts_past_int64_refused(name, big):
    call, what = BIG_COUNTS[name]
    with pytest.raises(ValueError) as info:
        call(big)
    assert str(info.value) == f"{what} must be below 2**63 (int64), got {big!r}"


def test_scalar_counts_below_int64_accepted():
    top = 2**63 - 1
    assert math.isfinite(negative_binomial_log_pmf(2.0, 0.5, top))
    assert BetaBinomialParams(1.0, 1.0, top).m == top


# The accept test takes Python builtins up to _PYTHON_SCAN_MAX entries and
# numpy reductions past it.  Each edge row is checked alone and at a
# seeded place among enough good rows for numpy: (validator, good row,
# edge rows).  Counts carry their dtype.
EDGE_ROWS = {
    "composition": (composition_rows, [0.5, 0.5], [
        [0.5, NAN], [INF, -INF], [TINY, 1.0], [NORMAL_MIN, 1.0], *SUM_EDGES.values(),
    ]),
    "ratio": (ratio_rows, [1.0, 2.0], [
        [1.0, NAN], [INF, -INF], [TINY, 1.0], [NORMAL_MIN, 1.0], [1e308, 1e308],
        [HALF_MAX, HALF_MAX], [HALF_MAX, PAST_HALF_MAX],
    ]),
    "log_ratio": (log_ratio_rows, [1.0, -2.0], [
        [1.0, NAN], [INF, -INF], [TINY, 1.0], [1e308, 1e308], [FLOAT_MAX, -FLOAT_MAX],
    ]),
    "positive": (lambda v: _positive_rows(v, "DirichletParams", 2), [1.0, 2.0], [
        [1.0, NAN], [INF, -INF], [TINY, 1.0], [NORMAL_MIN, 1.0], [1e308, 1e308],
        [HALF_MAX, HALF_MAX], [HALF_MAX, PAST_HALF_MAX],
    ]),
    "count": (count_rows, [1, 2], [
        np.array([1.0, NAN]), np.array([INF, -INF]), np.array([TINY, 1.0]),
        np.array([2**63 - 1, 0], dtype=np.int64), np.array([2**63, 0], dtype=np.uint64),
        np.array([2.0**63, 0.0]), np.array([2.0**63 - 1024, 1.0]),
    ]),
    "log_multivariate_beta": (log_multivariate_beta_rows, [1.0, 2.0], [
        [1.0, NAN], [INF, -INF], [TINY, 1.0], [NORMAL_MIN, 1.0], [1e308, 1e308],
        [FLOAT_MAX, 1.0],
    ]),
    "log_gamma": (lambda v: _log_gamma_each(v)[0], [1.0, 2.0], [
        [1.0, NAN], [INF, -INF], [TINY, 1.0], [FLOAT_MAX, FLOAT_MAX], [-0.0, 1.0],
    ]),
    "log_sum_exp": (log_sum_exp_rows, [1.0, -2.0], [
        [1.0, NAN], [INF, -INF], [-INF, -INF], [FLOAT_MAX, -FLOAT_MAX], [1e308, 1e308],
        [-FLOAT_MAX, 0.0],
    ]),
}
BATCH_ROWS = _PYTHON_SCAN_MAX  # rows of two entries: twice the Python limit


def _outcome(check, rows):
    """``(error row, message)`` of the check on ``rows``, or its output
    as a tuple of arrays."""
    try:
        out = check(rows)
    except RowError as exc:
        return exc.row, str(exc)
    except ValueError as exc:  # log-gamma overflow numbers no row
        return None, str(exc)
    return tuple(np.asarray(a) for a in (out if isinstance(out, tuple) else (out,)))


class TestAcceptRoutes:
    @pytest.mark.parametrize("name, index", [
        (name, i) for name, (_, _, rows) in EDGE_ROWS.items() for i in range(len(rows))
    ])
    def test_edge_row_alone_and_in_a_batch(self, name, index):
        check, good, edges = EDGE_ROWS[name]
        edge = np.asarray(edges[index])
        at = int(np.random.default_rng(index).integers(BATCH_ROWS))
        batch = np.repeat(np.asarray(good, dtype=edge.dtype)[None], BATCH_ROWS, axis=0)
        batch[at] = edge
        assert batch.size > _PYTHON_SCAN_MAX >= edge.size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = _outcome(check, edge[None])
            within = _outcome(check, batch)
        if isinstance(alone[0], np.ndarray):
            for one, many in zip(alone, within):
                np.testing.assert_array_equal(many[at], one[0])
        else:
            row, message = alone
            assert within == (None if row is None else at, message)


class TestRatioSumOverflow:
    """A RatioVector whose entries sum past float64 is refused by name;
    no Composition maps there, as its ratios sum to below 1 / the
    smallest normal float."""

    def test_scalar(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + RATIO_SUM + "$"):
                RatioVector([1e308, 1e308])

    def test_batch(self):
        good = [1.0, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch in (ratio_rows, ratio_inverse_rows,
                          lambda y: inverted_dirichlet_log_pdf_rows([1.0, 2.0, 3.0], y)):
                with pytest.raises(RowError) as info:
                    batch([good, good, [1e308, 1e308], good])
                assert (info.value.row, str(info.value)) == (2, RATIO_SUM)

    def test_largest_images_of_compositions_accepted(self):
        # x = (1/2, 1/2 - eps, eps) with eps at the normal floor.
        y = np.array([0.5, 0.5]) / NORMAL_MIN
        assert RatioVector(y).z == 1.0 + y.sum()

    def test_cli_names_the_row(self):
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "countcomp.cli", "transform", "ratio", "inverse"],
            input="y1,y2\n1,2\n1e308,1e308\n3,4\n", capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"error: row 3: {RATIO_SUM}\n"


class TestAlphaSumOverflow:
    """A concentration row whose entries sum past float64 is refused by
    the batch densities as DirichletParams refuses it, naming the row."""

    def test_batch(self):
        alpha = [[1.0, 1.0], [1e308, 1e308]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch, points in ((dirichlet_log_pdf_rows, [0.5, 0.5]),
                                  (inverted_dirichlet_log_pdf_rows, [1.0]),
                                  (alr_dirichlet_log_pdf_rows, [0.0])):
                with pytest.raises(RowError) as info:
                    batch(alpha, [points, points])
                assert (info.value.row, str(info.value)) == (1, DIRICHLET_SUM)


class TestShapesArgument:
    def test_dirichlet_params_accepted(self):
        x = CountVector([1, 2])
        want = dirichlet_multinomial_log_pmf([1.0, 2.0], 3, x)
        assert dirichlet_multinomial_log_pmf(DirichletParams([1, 2]), 3, x) == want
        assert dirichlet_multinomial_log_pmf(GammaMixtureParams([1, 2], 5.0), 3, x) == want

    @pytest.mark.parametrize("bad", [{}, object(), "abc", None, [1.0, "x"], [[1.0], [2.0, 3.0]]])
    def test_other_input_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            dirichlet_multinomial_log_pmf(bad, 3, CountVector([1, 2]))


# Arguments on every side of the log-gamma domain.  2.5e305 is below the
# overflow threshold (about 2.56e305) of float64 log Gamma; 2.6e305 is
# above it.
GOOD_ARGS = [1, 2, 3.5, 0.5, 1e-300, TINY, NORMAL_MIN, 10**15, 2**62 + 1.0, 1e300, 2.5e305,
             2.6e305, FLOAT_MAX]
BAD_ARGS = [0, 0.0, -0.0, -1, -1.5, NAN, INF, -INF]


def _log_gamma_outcome(a):
    try:
        return log_gamma(a)
    except ValueError as exc:
        return str(exc)


def _map_outcome(*args):
    """``_log_gamma_map(*args)``, or the message it raises."""
    try:
        return _log_gamma_map(*args)
    except ValueError as exc:
        return str(exc)


def _overflow_message(args):
    # Where log_gamma is +inf, the map raises, naming the largest argument.
    return f"log_gamma({max(args)!r}) overflows float64"


class TestLogGammaMap:
    @pytest.mark.parametrize("args", [
        (1, 2.0, 3),
        (2.5e305, 1.0),
        (2.6e305, 1.0),
        (1.0, 2.6e305, 2.5e305),
        (FLOAT_MAX, FLOAT_MAX),  # their sum overflows
        tuple(GOOD_ARGS),
        (10**15 + 1.0, 3, 0.25),
    ])
    def test_equals_log_gamma_bitwise(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _map_outcome(*args)
        want = [log_gamma(a) for a in args]
        if math.inf in want:
            assert got == _overflow_message(args)
            return
        assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, w) for w in want]
        assert got == want

    @pytest.mark.parametrize("bad", BAD_ARGS)
    @pytest.mark.parametrize("place", [0, 1, 3])
    def test_first_bad_argument_named(self, bad, place):
        args = [2.0, 3, 0.5]
        args.insert(place, bad)
        args.append(-2.0)  # a later bad argument is not the one named
        with pytest.raises(ValueError) as info:
            list(_log_gamma_map(*args))
        assert str(info.value) == _log_gamma_outcome(bad)
        assert str(info.value).startswith("log_gamma argument must be a finite number > 0")

    def test_every_argument_alone(self):
        for a in GOOD_ARGS + BAD_ARGS:
            got, want = _map_outcome(a), _log_gamma_outcome(a)
            if want == math.inf:
                assert got == _overflow_message([a])
            else:
                assert got == (want if isinstance(want, str) else [want])
