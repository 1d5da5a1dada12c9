"""Tests for the log-domain special functions."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, gammaln

import countcomp as cc
from countcomp import (
    log_beta,
    log_gamma,
    log_multivariate_beta,
    log_sum_exp,
)
from countcomp import distributions as dist
from countcomp import run_all, special
from countcomp.special import (
    _log_gamma_distinct,
    _log_gamma_each,
    log_multivariate_beta_rows,
    log_sum_exp_rows,
)

_SPEC = importlib.util.spec_from_file_location(
    "make_ledger", Path(__file__).with_name("data") / "make_ledger.py")
make_ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_ledger)

# log B(2.5, 3.5), frozen from adaptive quadrature of the integral
# definition int_0^1 t^1.5 (1-t)^2.5 dt (value 0.03681553890925537).
LOG_BETA_2P5_3P5 = -3.3018352699620523


def _mpmath_log_gamma(a):
    with mpmath.workdps(50):
        return float(mpmath.loggamma(mpmath.mpf(a)))


# 2.5e305 is below the overflow threshold (about 2.56e305) of float64
# log Gamma; the others are above it.
BELOW_OVERFLOW = 2.5e305
LOG_GAMMA_BELOW_OVERFLOW = 1.7555118602376454e308
ABOVE_OVERFLOW = [2.6e305, 1e306, 1e308, sys.float_info.max]
SUBNORMALS = [5e-324, 1e-322, 1e-320, 1e-315]


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_accuracy_budget_against_scipy(self):
        # Mixed relative error <= 1e-13 across twelve decades.
        grid = np.concatenate(
            [np.logspace(-6, 6, 4001), np.linspace(0.01, 3.0, 2000)]
        )
        got = np.array([log_gamma(a) for a in grid])
        np.testing.assert_allclose(got, gammaln(grid), rtol=1e-13, atol=1e-13)

    def test_accuracy_against_mpmath(self):
        # Mixed relative error <= 1e-14 against 50-digit mpmath: a log
        # grid over 24 decades, points near the zeros at 1 and 2, and the
        # integers 1..3000.
        grid = np.concatenate([
            np.logspace(-6, 18, 1201),
            1.0 + np.linspace(-1e-3, 1e-3, 101),
            2.0 + np.linspace(-1e-3, 1e-3, 101),
            np.arange(1.0, 3001.0),
        ])
        for a in grid.tolist():
            want = _mpmath_log_gamma(a)
            assert abs(log_gamma(a) - want) <= 1e-14 * max(1.0, abs(want)), a

    @pytest.mark.parametrize("a", SUBNORMALS)
    def test_subnormal_arguments(self, a):
        want = _mpmath_log_gamma(a)
        assert abs(log_gamma(a) - want) <= 1e-15 * abs(want)

    def test_overflow_raises_naming_the_argument(self):
        # As log_beta and the batch form do, not +inf.
        assert log_gamma(BELOW_OVERFLOW) == LOG_GAMMA_BELOW_OVERFLOW
        for a in ABOVE_OVERFLOW + [3e305, 10**306]:
            with pytest.raises(ValueError) as info:
                log_gamma(a)
            assert str(info.value) == f"log_gamma({float(a)!r}) overflows float64"
        with pytest.raises(ValueError, match=r"^log_gamma\(3e\+305\) overflows float64$"):
            log_beta(3e305, 1.0)

    def test_recurrence(self):
        # log G(a+1) = log G(a) + log a on 10^4 random points in (0, 100].
        rng = np.random.default_rng(7)
        a = rng.uniform(1e-6, 100.0, size=10_000)
        lhs = np.array([log_gamma(v + 1.0) for v in a])
        rhs = np.array([log_gamma(v) + math.log(v) for v in a])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


# The plain batch form and the one that takes each distinct entry once.
BATCH_FORMS = pytest.mark.parametrize("lgs", [_log_gamma_each, _log_gamma_distinct],
                                      ids=["each", "distinct"])


class TestLogGammaBatch:
    def test_equals_scalar_bitwise(self):
        rng = np.random.default_rng(3)
        half = 0.5
        args = np.concatenate([
            np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 100_000)),
            [np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), 1.0, 2.0],
            np.arange(1.0, 3001.0),
        ])
        (got,) = _log_gamma_each(args)
        want = np.array([log_gamma(a) for a in args.tolist()])
        assert np.count_nonzero(got != want) == 0

    def test_exact_zeros(self):
        (got,) = _log_gamma_each([1.0, 2.0])
        assert got.tolist() == [0.0, 0.0]

    def test_subnormal_arguments(self):
        (got,) = _log_gamma_each(SUBNORMALS)
        for a, value in zip(SUBNORMALS, got.tolist()):
            want = _mpmath_log_gamma(a)
            assert abs(value - want) <= 1e-15 * abs(want), a

    @BATCH_FORMS
    def test_overflow_raises_naming_the_argument(self, lgs):
        (got,) = lgs([BELOW_OVERFLOW, 3.5])
        assert got.tolist() == [LOG_GAMMA_BELOW_OVERFLOW, log_gamma(3.5)]
        for a in ABOVE_OVERFLOW:
            with pytest.raises(ValueError) as info:
                lgs([BELOW_OVERFLOW, 3.5], a)
            assert str(info.value) == f"log_gamma({a!r}) overflows float64"

    @BATCH_FORMS
    def test_arguments_keep_their_shapes(self, lgs):
        grid = np.array([[0.25, 1.0], [2.0, 7.5]])
        scalar, empty, matrix = lgs(3.5, np.array([]), grid)
        assert scalar.shape == () and empty.shape == (0,) and matrix.shape == (2, 2)
        assert scalar == log_gamma(3.5)
        assert matrix.tolist() == [[log_gamma(a) for a in row] for row in grid.tolist()]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad, monkeypatch):
        # The batch forms check no domain: the public batch entry in front
        # of them refuses the row before they are reached.
        def unreached(*args):
            raise AssertionError(f"_log_gamma_each{args!r}")

        monkeypatch.setattr(special, "_log_gamma_each", unreached)
        with pytest.raises(ValueError) as info:
            log_multivariate_beta_rows(np.array([[1.5, 2.0], [1.5, bad]]))
        assert info.value.row == 1
        assert str(info.value) == "log_multivariate_beta entries must be strictly positive and finite"


# Batch sizes from a few entries, mostly distinct, to many repeats.
BATCH_SIZES = [3, 40, 2560]


class _CountingMath:
    """``math`` with a count of the ``lgamma`` calls and their arguments."""

    def __init__(self):
        self.arguments = []

    def lgamma(self, a):
        self.arguments.append(a)
        return math.lgamma(a)

    def __getattr__(self, name):
        return getattr(math, name)


class _PositiveMath(_CountingMath):
    """``math`` whose ``lgamma`` fails, by AssertionError, on any argument
    outside (0, inf): the contract of the private log-gamma forms, which
    only map ``math.lgamma`` over values a public entry has checked."""

    def lgamma(self, a):
        assert 0.0 < a < math.inf, f"math.lgamma({a!r})"
        return super().lgamma(a)


# Accepted extremes: shapes from the smallest subnormal to past the
# overflow of log Gamma, and totals up to 2**62.
EXTREME_SHAPES = [5e-324, 1e-300, 0.5, 1e300, 8e307]
EXTREME_TOTALS = [0, 1, 2**31, 2**62]


def _extreme_calls(s):
    """Every public log density and mass at shape ``s`` and each extreme
    total, as ``(name, call)`` pairs."""
    totals = EXTREME_TOTALS
    counts = [[m - m // 3, m // 3, 0] for m in totals]
    alpha, probs = [s, 1.0, s], cc.Composition([0.25, 0.5, 0.25])
    mixture = cc.GammaMixtureParams([s, 1.0], 2.0)
    calls = [
        ("log_gamma", lambda: log_gamma(s)),
        ("log_beta", lambda: log_beta(s, 1.0)),
        ("log_multivariate_beta", lambda: log_multivariate_beta(alpha)),
        ("log_multivariate_beta_rows", lambda: log_multivariate_beta_rows([alpha, alpha[::-1]])),
        ("dirichlet", lambda: cc.dirichlet_log_pdf(cc.DirichletParams(alpha), probs)),
        ("inverted", lambda: cc.inverted_dirichlet_log_pdf(
            cc.DirichletParams(alpha), cc.RatioVector([1.0, 2.0]))),
        ("alr", lambda: cc.alr_dirichlet_log_pdf(
            cc.DirichletParams(alpha), cc.LogRatioVector([0.0, 1.0]))),
        ("dirichlet_rows", lambda: dist.dirichlet_log_pdf_rows(alpha, [[0.25, 0.5, 0.25]])),
        ("inverted_rows", lambda: dist.inverted_dirichlet_log_pdf_rows(alpha, [[1.0, 2.0]])),
        ("alr_rows", lambda: dist.alr_dirichlet_log_pdf_rows(alpha, [[0.0, 1.0]])),
        ("nb_rows", lambda: dist.negative_binomial_log_pmf_rows(s, 0.5, totals)),
        ("multinomial_rows", lambda: dist.multinomial_log_pmf_rows(totals, probs, counts)),
        ("dm_rows", lambda: dist.dirichlet_multinomial_log_pmf_rows(alpha, totals, counts)),
        ("nnb_rows", lambda: dist.normalized_nb_log_pmf_rows(
            mixture, 0, [m // 2 for m in totals], totals)),
        ("nnb_value", lambda: cc.normalized_nb_value_pmf(mixture, 0, (1, 3))),
    ]
    for m, x in zip(totals, counts):
        calls += [
            (f"nb-{m}", lambda m=m: cc.negative_binomial_log_pmf(s, 0.5, m)),
            (f"multinomial-{m}", lambda m=m, x=x: cc.multinomial_log_pmf(
                m, probs, cc.CountVector(x))),
            (f"dm-{m}", lambda m=m, x=x: cc.dirichlet_multinomial_log_pmf(
                alpha, m, cc.CountVector(x))),
            (f"bb-{m}", lambda m=m: cc.beta_binomial_log_pmf(
                cc.BetaBinomialParams(s, 1.0, m), m // 2)),
            (f"nnb-{m}", lambda m=m: cc.normalized_nb_log_pmf(mixture, 0, m // 2, m)),
        ]
    return calls


def _call_outcome(call):
    """The repr of a call's value, or of the ValueError it raises."""
    try:
        value = call()
    except ValueError as exc:
        return f"ValueError({str(exc)!r})"
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


class TestPrivateFormsTakeCheckedArguments:
    """Every argument that reaches the private log-gamma forms lies in
    (0, inf): the public entries check theirs, and the forms do not."""

    def test_value_ledger_calls(self, monkeypatch):
        ledger = make_ledger.read(make_ledger.VALUE_LEDGER)
        positive = _PositiveMath()
        monkeypatch.setattr(special, "math", positive)
        assert make_ledger.values_moved(make_ledger.values(ledger), ledger) == []
        assert positive.arguments

    def test_quick_suite(self, monkeypatch):
        positive = _PositiveMath()
        monkeypatch.setattr(special, "math", positive)
        assert all(report.passed for report in run_all(0, "quick"))
        assert positive.arguments

    @pytest.mark.parametrize("s", EXTREME_SHAPES)
    def test_public_entries_at_the_extremes(self, s, monkeypatch):
        calls = _extreme_calls(s)
        want = [_call_outcome(call) for _, call in calls]
        monkeypatch.setattr(special, "math", _PositiveMath())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (name, call), outcome in zip(calls, want):
                assert _call_outcome(call) == outcome, name


class TestLogGammaBatchRepeats:
    """The count batches repeat a few totals and counts over many rows."""

    POOL = [5e-324, 1e-300, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 12.5, 1e10, BELOW_OVERFLOW]

    def _repeats(self, size, seed):
        return np.random.default_rng(seed).choice(self.POOL, size=size)

    @BATCH_FORMS
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_equals_the_map_bit_for_bit(self, lgs, size):
        counts, totals = self._repeats(size, 1).reshape(-1, 1), self._repeats(7, 2)
        got_counts, got_totals = lgs(counts, totals)
        assert got_counts.shape == counts.shape and got_totals.shape == totals.shape
        for got, args in ((got_counts, counts), (got_totals, totals)):
            want = np.array(list(map(math.lgamma, args.ravel().tolist()))).reshape(args.shape)
            assert got.tobytes() == want.tobytes()

    @BATCH_FORMS
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_lgamma_calls(self, lgs, size, monkeypatch):
        # Once per entry in order, or once per distinct entry.
        counting = _CountingMath()
        monkeypatch.setattr(special, "math", counting)
        args = self._repeats(size, 3)
        lgs(args)
        want = sorted(set(args.tolist())) if lgs is _log_gamma_distinct else args.tolist()
        assert counting.arguments == want

    @BATCH_FORMS
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_refusals_are_unchanged(self, lgs, size):
        args = self._repeats(size, 4)
        for a in ABOVE_OVERFLOW:
            args[-3:] = [a, 3.5, a]
            with pytest.raises(ValueError) as info:
                lgs(args)
            assert str(info.value) == f"log_gamma({a!r}) overflows float64"


class TestLogMultivariateBeta:
    def test_known_values(self):
        assert log_multivariate_beta((1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
        assert log_multivariate_beta((1.0, 1.0, 1.0)) == pytest.approx(-math.log(2.0), rel=1e-14)
        assert log_multivariate_beta((2.0, 2.0)) == pytest.approx(math.log(1.0 / 6.0), rel=1e-14)

    def test_against_scipy_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(0.05, 50.0, size=2)
            assert log_multivariate_beta((a, b)) == pytest.approx(
                betaln(a, b), rel=1e-12, abs=1e-12
            )

    @given(
        st.lists(st.floats(0.05, 50.0), min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance_exact(self, alpha, shuffler):
        base = log_multivariate_beta(alpha)
        permuted = list(alpha)
        shuffler.shuffle(permuted)
        assert log_multivariate_beta(permuted) == base

    @pytest.mark.parametrize("bad", [(1.0,), (1.0, 0.0), (1.0, -2.0), (1.0, math.nan)])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_multivariate_beta(bad)


class TestLogBeta:
    def test_known_values(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_beta(1.0, 5.0) == pytest.approx(math.log(0.2), rel=1e-14)

    def test_matches_quadrature_oracle(self):
        # Recompute the frozen oracle value from the integral definition.
        integral, err = quad(
            lambda t: t**1.5 * (1.0 - t) ** 2.5, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13
        )
        assert err < 1e-12
        assert math.log(integral) == pytest.approx(LOG_BETA_2P5_3P5, abs=1e-12)
        assert log_beta(2.5, 3.5) == pytest.approx(LOG_BETA_2P5_3P5, rel=1e-13)

    def test_equals_multivariate_form(self):
        assert log_beta(2.5, 3.5) == log_multivariate_beta((2.5, 3.5))

    def test_equals_multivariate_form_bitwise(self):
        rng = np.random.default_rng(13)
        for a, b in np.exp(rng.uniform(math.log(1e-6), math.log(1e6), (2000, 2))).tolist():
            assert log_beta(a, b) == log_multivariate_beta((a, b))

    @pytest.mark.parametrize("a", [1e308, 1e306])
    def test_overflow_error_shared_with_multivariate_form(self, a):
        with pytest.raises(ValueError, match="overflows float64") as beta:
            log_beta(a, a)
        with pytest.raises(ValueError) as multivariate:
            log_multivariate_beta((a, a))
        assert str(beta.value) == str(multivariate.value)

    def test_rows_summing_past_float64_together(self):
        # Each row and its log-gammas are in range; all rows together sum
        # past the largest float.
        got = log_multivariate_beta_rows(np.full((1000, 2), 1e305))
        assert got.tolist() == [log_multivariate_beta([1e305, 1e305])] * 1000

    @pytest.mark.parametrize(
        "a, b", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)]
    )
    def test_domain_error_message_unchanged(self, a, b):
        message = "log_multivariate_beta entries must be strictly positive and finite"
        with pytest.raises(ValueError, match=message):
            log_beta(a, b)
        with pytest.raises(ValueError, match=message):
            log_multivariate_beta((a, b))


class TestLogSumExp:
    def test_single_zero(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_masses_summing_to_one(self):
        vals = [math.log(0.25), math.log(0.25), math.log(0.5)]
        assert log_sum_exp(vals) == pytest.approx(0.0, abs=1e-15)

    def test_shift_stability(self):
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0))

    def test_all_neg_inf(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_rows_equal_single_calls(self):
        rows = [[0.1, -3.0, 2.0], [-math.inf, -math.inf, -math.inf], [math.inf, 800.0, 1.0],
                [-1000.0, -1000.0, -math.inf], [700.0, 0.0, -700.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_sum_exp_rows(rows)
        assert got.tolist() == [log_sum_exp(row) for row in rows]
        with pytest.raises(ValueError, match="NaN"):
            log_sum_exp_rows([[0.0, 1.0], [math.nan, 0.0]])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_property(self, values, shift):
        base = log_sum_exp(values)
        shifted = log_sum_exp([v + shift for v in values])
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-10)
