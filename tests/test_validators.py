"""The row validators and the one-point log-gamma map at the edges of
their domains.

Each validator first runs a fused accept test and builds its ordered
per-rule masks only when that test fails.  The table below pins, for
inputs on both sides of every rule, the row and message each validator
raises, and checks that every accepted row comes back unchanged.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from countcomp import (
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    RatioVector,
    dirichlet_multinomial_log_pmf,
    log_gamma,
)
from countcomp.distributions import _positive_vector, count_rows, inverted_dirichlet_log_pdf_rows
from countcomp.simplex import (
    RowError,
    _checked_compositions,
    composition_rows,
    log_ratio_rows,
    ratio_inverse_rows,
    ratio_rows,
)
from countcomp.special import _log_gamma_map, log_multivariate_beta

NAN, INF = math.nan, math.inf
TINY = 5e-324  # the smallest subnormal
NORMAL_MIN = sys.float_info.min
FLOAT_MAX = sys.float_info.max
G3 = [0.2, 0.3, 0.5]

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
BETA_DOMAIN = "log_multivariate_beta requires strictly positive finite entries"


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
    ]),
}

# Vector validators raise a plain ValueError: (input, message or None).
VECTOR_CASES = {
    "positive_vector": (lambda v: _positive_vector(v, "DirichletParams", 2), [
        ([1.0, NAN], DIRICHLET_ENTRIES),
        ([NAN, 1.0], DIRICHLET_ENTRIES),
        ([1.0, INF], DIRICHLET_ENTRIES),
        ([1.0, -INF], DIRICHLET_ENTRIES),
        ([INF, -INF], DIRICHLET_ENTRIES),
        ([-0.0, 1.0], DIRICHLET_ENTRIES),
        ([0.0, 1.0], DIRICHLET_ENTRIES),
        ([-1.0, 1.0], DIRICHLET_ENTRIES),
        ([1e308, 1e308, NAN], DIRICHLET_ENTRIES),
        ([TINY, 1.0], None),
        ([FLOAT_MAX, 1.0], None),
        ([1e308, 1e308], "DirichletParams: the sum of the entries overflows float64"),
        ([1.0], "DirichletParams requires a vector of length >= 2"),
        ([[1.0, 2.0]], "DirichletParams requires a vector of length >= 2"),
    ]),
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
        ([1e308, 1e308],
         "log_multivariate_beta: a log-gamma term overflows float64 at these arguments"),
        ([1.0], "log_multivariate_beta requires a vector of length >= 2"),
    ]),
}


class TestValidatorAgreement:
    @pytest.mark.parametrize(
        "name, values, expected",
        [(name, v, e) for name, (_, cases) in ROW_CASES.items() for v, e in cases],
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
        given = np.asarray(values, dtype=float if name != "count" else None)
        if name == "composition":
            unchanged, totals = _checked_compositions(values)
            np.testing.assert_array_equal(unchanged, given)
            np.testing.assert_array_equal(rows, given / totals[:, None])
        else:
            assert rows.dtype == (np.int64 if name == "count" else float)
            np.testing.assert_array_equal(rows, given)
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
        if name == "positive_vector":
            np.testing.assert_array_equal(out, values)
            assert not out.flags.writeable
        else:
            lgs = [math.lgamma(a) for a in values]
            assert out == math.fsum(lgs) - math.lgamma(math.fsum(values))

    @pytest.mark.parametrize("check, n", [
        (composition_rows, 3), (ratio_rows, 2), (log_ratio_rows, 2), (count_rows, 2),
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
            got = list(_log_gamma_map(*args))
        want = [log_gamma(a) for a in args]
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
        assert str(info.value).startswith("log_gamma requires a finite argument > 0")

    def test_every_argument_alone(self):
        for a in GOOD_ARGS + BAD_ARGS:
            try:
                got = list(_log_gamma_map(a))
            except ValueError as exc:
                got = str(exc)
            else:
                (got,) = got
            assert got == _log_gamma_outcome(a)
