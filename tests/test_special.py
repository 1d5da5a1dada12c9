"""Tests for the log-domain special functions."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, gammaln

from countcomp import (
    log_beta,
    log_gamma,
    log_multivariate_beta,
    log_sum_exp,
    rank_one_update_det,
)
from countcomp.special import _log_gamma_each, log_multivariate_beta_rows, log_sum_exp_rows

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

    def test_overflow_returns_inf(self):
        assert log_gamma(BELOW_OVERFLOW) == LOG_GAMMA_BELOW_OVERFLOW
        for a in ABOVE_OVERFLOW:
            assert log_gamma(a) == math.inf

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

    def test_overflow_raises_naming_the_argument(self):
        (got,) = _log_gamma_each([BELOW_OVERFLOW, 3.5])
        assert got.tolist() == [LOG_GAMMA_BELOW_OVERFLOW, log_gamma(3.5)]
        for a in ABOVE_OVERFLOW:
            with pytest.raises(ValueError) as info:
                _log_gamma_each([BELOW_OVERFLOW, 3.5], a)
            assert str(info.value) == f"log_gamma({a!r}) overflows float64"

    def test_arguments_keep_their_shapes(self):
        grid = np.array([[0.25, 1.0], [2.0, 7.5]])
        scalar, empty, matrix = _log_gamma_each(3.5, np.array([]), grid)
        assert scalar.shape == () and empty.shape == (0,) and matrix.shape == (2, 2)
        assert scalar == log_gamma(3.5)
        assert matrix.tolist() == [[log_gamma(a) for a in row] for row in grid.tolist()]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="finite arguments > 0"):
            _log_gamma_each(np.array([1.5, bad]))


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


class TestRankOneUpdateDet:
    def test_lemma_substitution(self):
        assert rank_one_update_det([2.0, 2.0], [1.0, 1.0], [1.0, 1.0]) == pytest.approx(8.0)

    def test_zero_update(self):
        diag = [3.0, -1.5, 0.25]
        expected = 3.0 * -1.5 * 0.25
        assert rank_one_update_det(diag, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(
            expected, rel=1e-15
        )

    def test_random_4x4_against_lu(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 2.0, size=4)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        dense = np.linalg.det(np.diag(d) + np.outer(u, v))
        assert rank_one_update_det(d, u, v) == pytest.approx(dense, rel=1e-12)

    def test_many_random_against_lu(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            d = rng.uniform(0.2, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            dense = np.linalg.det(np.diag(d) + np.outer(u, v))
            assert rank_one_update_det(d, u, v) == pytest.approx(dense, rel=1e-10, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_one_update_det([1.0, 2.0], [1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            rank_one_update_det(np.ones((3, 2)), np.ones((3, 1)), np.ones((3, 2)))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_stack_equals_each_row_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        d = rng.uniform(0.2, 3.0, size=(4, 50, dim)) * rng.choice([-1.0, 1.0], size=(4, 50, dim))
        u = rng.normal(size=d.shape)
        v = rng.normal(size=d.shape)
        got = rank_one_update_det(d, u, v)
        assert got.shape == (4, 50)
        for index in np.ndindex(4, 50):
            one = rank_one_update_det(d[index], u[index], v[index])
            assert isinstance(one, float) and one == got[index]
            # The lemma as written with ``@`` on one vector.
            assert one == (1.0 + v[index] @ (u[index] / d[index])) * np.prod(d[index])

    @pytest.mark.parametrize(
        "d, u, v, row",
        [
            ([[1.0, 2.0], [3.0, 0.0]], [[1.0, 1.0]] * 2, [[1.0, 1.0]] * 2, 1),
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [math.inf, 1.0]], [[1.0, 1.0]] * 2, 1),
            (np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0)), 0),
        ],
    )
    def test_stack_raises_as_its_bad_row_does(self, d, u, v, row):
        with pytest.raises(ValueError) as one:
            rank_one_update_det(d[row], u[row], v[row])
        with pytest.raises(ValueError) as stack:
            rank_one_update_det(d, u, v)
        assert str(stack.value) == str(one.value)

    def test_zero_diagonal(self):
        with pytest.raises(ValueError):
            rank_one_update_det([1.0, 0.0], [1.0, 1.0], [1.0, 1.0])


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
