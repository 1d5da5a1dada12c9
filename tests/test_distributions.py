"""Tests for the density and mass functions (exact values and identities)."""

import copy
import math
import pickle
import sys
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom, poisson

from countcomp import distributions, special
from countcomp import (
    BetaBinomialParams,
    Composition,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    LogRatioVector,
    RatioVector,
    alr_dirichlet_log_pdf,
    beta_binomial_log_pmf,
    dirichlet_log_pdf,
    dirichlet_multinomial_log_pmf,
    inverted_dirichlet_log_pdf,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_inverse,
    log_sum_exp,
    multinomial_log_pmf,
    nb_truncation_bound,
    negative_binomial_log_pmf,
    normalized_nb_log_pmf,
    normalized_nb_value_pmf,
    ratio_inverse,
)
from countcomp.checks import _composition_matrix
from countcomp.distributions import (
    alr_dirichlet_log_pdf_rows,
    count_rows,
    inverted_dirichlet_log_pdf_rows,
)
from countcomp.simplex import RowError


def _count_vectors(n, m):
    return [CountVector(row) for row in _composition_matrix(n, m)]


def _mpmath_alr_log_pdf(alpha, y):
    """The ALR-Dirichlet log density at 50 digits, rounded to a float."""
    with mpmath.workdps(50):
        a, y = [mpmath.mpf(v) for v in alpha], [mpmath.mpf(v) for v in y]
        log_b = mpmath.fsum(mpmath.loggamma(v) for v in a) - mpmath.loggamma(mpmath.fsum(a))
        log_k = mpmath.log(1 + mpmath.fsum(mpmath.exp(v) for v in y))
        return float(-log_b + mpmath.fsum(ai * yi for ai, yi in zip(a, y)) - mpmath.fsum(a) * log_k)


def _mpmath_push_forward_terms(alpha, y, ratio):
    """The push-forward log density plus log B(alpha), in the composition's
    coordinates, at 700 digits: ``sum_{i<n} (alpha_i - 1) log x_i +
    (alpha_n + n - 1) log x_n`` (ratio) or ``sum_i alpha_i log x_i``."""
    with mpmath.workdps(700):
        a, y = [mpmath.mpf(v) for v in alpha], [mpmath.mpf(v) for v in y]
        if ratio:
            log_total = mpmath.log(1 + mpmath.fsum(y))
            weights = [v - 1 for v in a[:-1]] + [a[-1] + len(a) - 1]
            logs = [mpmath.log(v) for v in y] + [mpmath.mpf(0)]
        else:
            log_total = mpmath.log(1 + mpmath.fsum(mpmath.exp(v) for v in y))
            weights, logs = a, y + [mpmath.mpf(0)]
        return mpmath.fsum(w * (v - log_total) for w, v in zip(weights, logs))


def _mpmath_nb_log_mass(big_r, p, m):
    """log NB(R, p) at m at 40 digits, with log G(m+R) - log G(R) taken as
    the log of the product R (R+1) ... (R+m-1): no log-gamma at R, so its
    error does not grow with R."""
    with mpmath.workdps(40):
        big_r, p = mpmath.mpf(big_r), mpmath.mpf(p)
        rise = mpmath.log(mpmath.fprod(big_r + i for i in range(m)))
        return rise - mpmath.loggamma(m + 1) + big_r * mpmath.log1p(-p) + m * mpmath.log(p)


def _mpmath_pair_log_mass(shapes, component):
    """A function (k, m, scale) -> the 50-digit log of ``NB(R, p) at m``
    times ``BetaBinomial(r_c, R - r_c, m) at k``.  Its log-gammas are kept
    between calls."""
    with mpmath.workdps(50):
        rest = [mpmath.mpf(v) for v in shapes]
        a = rest.pop(component)
        b = mpmath.fsum(rest)
        shifts = (a, b, a + b, mpmath.mpf(1))
    memo = {}

    def lg(i, t):  # log G(shifts[i] + t)
        if (i, t) not in memo:
            memo[i, t] = mpmath.loggamma(shifts[i] + t)
        return memo[i, t]

    def log_mass(k, m, scale):
        with mpmath.workdps(50):
            theta = mpmath.mpf(scale)
            p = theta / (1 + theta)
            log_nb = lg(2, m) - lg(2, 0) - lg(3, m) + (a + b) * mpmath.log1p(-p) + m * mpmath.log(p)
            log_bb = (lg(3, m) - lg(3, k) - lg(3, m - k) + (lg(0, k) + lg(1, m - k) - lg(2, m))
                      - (lg(0, 0) + lg(1, 0) - lg(2, 0)))
            return log_nb + log_bb

    return log_mass


def _mixed_error(got, want):
    """|got - want|, relative where |want| exceeds 1."""
    return float(abs(got - want) / max(1, abs(want)))


def _rounding_floor(big_r, p, m):
    """Two ulps of the largest terms of an NB(R, p) log mass at m, log
    G(m + R + 1), R log(1 - p) and m log p, as an absolute error.  A log
    mass formed from such terms by float arithmetic is no closer to the
    exact value than that, however small it is."""
    return 2.0 * sys.float_info.epsilon * (
        math.lgamma(m + big_r + 1.0) + big_r * -math.log1p(-p) + m * -math.log(p))


class TestParamValidation:
    def test_dirichlet_params(self):
        with pytest.raises(ValueError):
            DirichletParams([1.0])
        with pytest.raises(ValueError):
            DirichletParams([1.0, 0.0])
        with pytest.raises(ValueError):
            DirichletParams([1.0, -1.0])

    def test_gamma_mixture_params(self):
        params = GammaMixtureParams([1.0, 2.0], 0.5)
        assert params.total_shape == pytest.approx(3.0)
        assert params.success_prob == pytest.approx(0.5 / 1.5)
        with pytest.raises(ValueError):
            GammaMixtureParams([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            GammaMixtureParams([], 1.0)

    def test_count_vector(self):
        x = CountVector([0, 2, 3])
        assert x.total == 5
        assert x.n == 3
        with pytest.raises(ValueError):
            CountVector([1, -1])
        with pytest.raises(ValueError):
            CountVector([1.5, 2])

    @pytest.mark.parametrize("big", [2**63, 1e20, 2.0**63, 2**64, 2**70])
    def test_count_vector_rejects_values_past_int64(self, big):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            CountVector([1, big])

    def test_count_vector_exact_near_int64(self):
        top = 2**63 - 1
        assert CountVector([top]).counts.tolist() == [top]
        assert CountVector([2**53 + 1]).counts.tolist() == [2**53 + 1]
        # The total is exact even where an int64 sum would wrap.
        assert CountVector([2**62, 2**62]).total == 2**63

    def test_count_rows_names_first_bad_row(self):
        rows = count_rows([[1, 2], [3, 4]])
        assert rows.dtype == np.int64 and rows.tolist() == [[1, 2], [3, 4]]
        assert not rows.flags.writeable
        # Row 1 breaks the integer rule, row 2 the sign rule, row 3 both.
        with pytest.raises(RowError, match="integers") as info:
            count_rows([[1.0, 2.0], [0.5, 1.0], [1.0, -1.0], [-0.5, 1.0]])
        assert info.value.row == 1
        with pytest.raises(RowError, match="non-negative") as info:
            count_rows([[1, 2], [3, 4], [-3, 4]])
        assert info.value.row == 2

    def test_beta_binomial_params(self):
        with pytest.raises(ValueError):
            BetaBinomialParams(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            BetaBinomialParams(1.0, 1.0, -1)


class TestDirichletPdf:
    def test_uniform_on_1_simplex(self):
        params = DirichletParams([1.0, 1.0])
        assert dirichlet_log_pdf(params, Composition([0.3, 0.7])) == pytest.approx(0.0, abs=1e-13)

    def test_uniform_on_2_simplex(self):
        params = DirichletParams([1.0, 1.0, 1.0])
        for x in ([0.2, 0.3, 0.5], [0.1, 0.1, 0.8]):
            assert dirichlet_log_pdf(params, Composition(x)) == pytest.approx(
                math.log(2.0), rel=1e-13
            )

    def test_symmetric_alpha2(self):
        params = DirichletParams([2.0, 2.0])
        assert dirichlet_log_pdf(params, Composition([0.5, 0.5])) == pytest.approx(
            math.log(1.5), rel=1e-13
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_log_pdf(DirichletParams([1.0, 1.0]), Composition([0.2, 0.3, 0.5]))


class TestInvertedDirichletPdf:
    def test_alpha_ones_n2(self):
        params = DirichletParams([1.0, 1.0])
        assert inverted_dirichlet_log_pdf(params, RatioVector([1.0])) == pytest.approx(
            math.log(0.25), rel=1e-13
        )

    def test_alpha_ones_n3(self):
        params = DirichletParams([1.0, 1.0, 1.0])
        assert inverted_dirichlet_log_pdf(params, RatioVector([1.0, 1.0])) == pytest.approx(
            math.log(2.0 / 27.0), rel=1e-13
        )

    def test_change_of_variables_identity(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            for _ in range(200):
                params = DirichletParams(rng.uniform(0.3, 5.0, size=n))
                y = RatioVector(np.exp(rng.normal(size=n - 1)))
                direct = inverted_dirichlet_log_pdf(params, y)
                pulled = dirichlet_log_pdf(params, ratio_inverse(y))
                pulled += log_det_jacobian_ratio_inverse(y, n)
                assert direct == pytest.approx(pulled, rel=1e-12, abs=1e-12)

    # Points where (alpha_1 - 1) log y_1 and sum(alpha) log z, the terms of
    # the density in ratio coordinates, overflow or cancel; the second
    # point has 10 components.  In the composition's coordinates nothing
    # cancels.  The library's log B is off at alpha_1 = 2.54e305 (it
    # returns 0.0 where the exact value is 6.204, ROADMAP item 2), so the
    # value is compared without it.
    FAR_POINTS = [
        ([2.54e305, 1e-3], [1e308]),
        ([2.54e305, 1e-3], [1e300]),
        ([2.54e305] + [1e-3] * 9, [1e308] + [1.0] * 8),
    ]

    @pytest.mark.parametrize("alpha, y", FAR_POINTS)
    def test_far_points_match_mpmath_up_to_log_b(self, alpha, y):
        got = inverted_dirichlet_log_pdf(DirichletParams(alpha), RatioVector(y))
        want = _mpmath_push_forward_terms(alpha, y, ratio=True)
        assert abs(got + special.log_multivariate_beta(alpha) - want) <= 1e-13 * abs(want)

    def test_far_points_give_their_values(self):
        # Exactly -716.11 and -254697.67; the rest is log B's 6.204.
        got = [inverted_dirichlet_log_pdf(DirichletParams(alpha), RatioVector(y))
               for alpha, y in self.FAR_POINTS[:2]]
        assert got == [pytest.approx(-709.907944850808, rel=1e-13),
                       pytest.approx(-254691.46630342610, rel=1e-13)]

    @pytest.mark.parametrize("alpha, y", FAR_POINTS)
    def test_the_batch_row_equals_the_point(self, alpha, y):
        others = [[2.0] * len(y), [0.5] * len(y)]
        got = inverted_dirichlet_log_pdf_rows(alpha, [others[0], y, others[1]]).tolist()
        want = [inverted_dirichlet_log_pdf(DirichletParams(alpha), RatioVector(row))
                for row in (others[0], y, others[1])]
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestAlrDirichletPdf:
    def test_standard_logistic_at_zero(self):
        params = DirichletParams([1.0, 1.0])
        assert alr_dirichlet_log_pdf(params, LogRatioVector([0.0])) == pytest.approx(
            math.log(0.25), rel=1e-13
        )

    def test_grid_quadrature_normalization(self):
        # Trapezoid over [-40, 40]; the integrand decays like e^{-|y|}, so
        # truncation and discretization error both land far below 1e-8.
        params = DirichletParams([1.0, 1.0])
        grid = np.linspace(-40.0, 40.0, 16001)
        vals = [math.exp(alr_dirichlet_log_pdf(params, LogRatioVector([y]))) for y in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-8)

    def test_change_of_variables_identity(self):
        rng = np.random.default_rng(37)
        for n in range(2, 7):
            for _ in range(200):
                params = DirichletParams(rng.uniform(0.3, 5.0, size=n))
                y = LogRatioVector(rng.normal(0.0, 2.0, size=n - 1))
                direct = alr_dirichlet_log_pdf(params, y)
                pulled = dirichlet_log_pdf(params, log_ratio_inverse(y))
                pulled += log_det_jacobian_log_ratio_inverse(y, n)
                assert direct == pytest.approx(pulled, rel=1e-12, abs=1e-12)


class TestPushForwardsAgainstMpmath:
    """The two push-forward forms without their -log B (whose error is
    ROADMAP item 2's) against 700-digit mpmath, at concentrations from 1e-3
    to 1e6, ratio coordinates from 1e-300 to 1e300 and log-ratios out to
    +-1.7e308: mixed relative error at most 1e-13, or -inf where the exact
    value is below -FLOAT_MAX."""

    @pytest.mark.parametrize("ratio", [True, False], ids=["inverted", "alr"])
    def test_grid(self, ratio):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            alpha = (10.0 ** rng.uniform(-3.0, 6.0, n)).tolist()
            if ratio:
                y = (10.0 ** rng.uniform(-300.0, 300.0, n - 1)).tolist()
                got = distributions._inverted_dirichlet_log_terms(
                    0.0, alpha, distributions._half_log_x(y, True))
            else:
                top = math.log10(rng.choice([2.0, 50.0, 1e300, 1.7e308]))
                y = (rng.choice([-1.0, 1.0], n - 1) * 10.0 ** rng.uniform(-300.0, top, n - 1)).tolist()
                got = distributions._alr_dirichlet_log_terms(
                    0.0, alpha, distributions._half_log_x(y, False))
            want = _mpmath_push_forward_terms(alpha, y, ratio)
            if want < -sys.float_info.max:
                assert got == -math.inf, (alpha, y)
            else:
                assert _mixed_error(got, want) <= 1e-13, (alpha, y, got, want)


# Log-ratio points whose terms alpha . y or sum(alpha) log k overflow,
# though the log density is finite (or below -FLOAT_MAX: -inf).
ALR_OVERFLOW = [
    ([1.0, 1.0, 1.0], [1e308, 1e308]),
    ([3.0, 1.5], [1e308]),
    ([0.5, 2.0, 1.0], [1e308, 1.5e308]),
    ([1.0, 1.0, 1.0], [1.7e308, -1.7e308]),
    ([1.0, 1.0, 1.0], [-1e308, -1e308]),
    # y_2 - log k alone overflows; the density is about -3.7e307.
    ([2.0, 0.1, 0.1], [1e308, -1.7e308]),
    # sum(alpha) log k overflows as a float, though the density is about
    # -2.2e307 and -2.43e307.
    ([1.5, 0.2], [1.1e308]),
    ([7.3, 1.06], [2.29e307]),
    # y_1 - y_2 passes -FLOAT_MAX; the density is about -1.5e308.
    ([0.5, 1.0, 0.5], [-1e308, 1e308]),
    ([2.5e305 / 3] * 3, [-1.7e308, 1.7e308]),
]


class TestAlrOverflow:
    @pytest.mark.parametrize("alpha, y", ALR_OVERFLOW)
    def test_matches_mpmath(self, alpha, y):
        got = alr_dirichlet_log_pdf(DirichletParams(alpha), LogRatioVector(y))
        want = _mpmath_alr_log_pdf(alpha, y)
        assert got == want or abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("alpha, y", ALR_OVERFLOW)
    def test_the_point_equals_its_batch_row(self, alpha, y):
        got = alr_dirichlet_log_pdf(DirichletParams(alpha), LogRatioVector(y))
        (want,) = alr_dirichlet_log_pdf_rows(alpha, [y]).tolist()
        assert got.hex() == want.hex()

    def test_batch_form_equals_scalar(self):
        # Rows that overflow beside rows that do not, which keep their bits.
        # alpha has one row per point.
        rng = np.random.default_rng(43)
        points = [(a, row) for a, row in ALR_OVERFLOW if len(a) == 3]
        points += [([1.0, 1.0, 1.0], row) for row in rng.normal(0.0, 2.0, size=(4, 2)).tolist()]
        alpha, y = (np.array(side) for side in zip(*points))
        got = alr_dirichlet_log_pdf_rows(alpha, y)
        want = [alr_dirichlet_log_pdf(DirichletParams(a), LogRatioVector(row)) for a, row in points]
        assert got.tolist() == want

    @pytest.mark.parametrize("entries", [7, 8, 9, 130])
    def test_long_rows_take_the_batch_arithmetic(self, entries):
        # alpha_1 y_1 overflows; the density is about -0.9e308, with a row
        # sum of ``entries`` terms.
        alpha = [5.0] + [0.9 / entries] * entries
        y = [1e308] + [1.0] * (entries - 1)
        got = alr_dirichlet_log_pdf(DirichletParams(alpha), LogRatioVector(y))
        (want,) = alr_dirichlet_log_pdf_rows(alpha, [y]).tolist()
        assert math.isfinite(got) and got.hex() == want.hex()


class TestNegativeBinomialPmf:
    def test_geometric_cases(self):
        assert negative_binomial_log_pmf(1.0, 0.5, 0) == pytest.approx(math.log(0.5), rel=1e-14)
        assert negative_binomial_log_pmf(1.0, 0.5, 3) == pytest.approx(4.0 * math.log(0.5), rel=1e-14)

    def test_truncated_sum_normalizes(self):
        terms = [negative_binomial_log_pmf(2.5, 0.3, m) for m in range(501)]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-10)

    def test_p_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                negative_binomial_log_pmf(2.0, bad, 1)
        with pytest.raises(ValueError):
            negative_binomial_log_pmf(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            negative_binomial_log_pmf(2.0, 0.5, -1)

    def test_large_m_stays_finite(self):
        # Linear-domain Gamma ratios would overflow far earlier.
        val = negative_binomial_log_pmf(2.0, 0.5, 5000)
        assert math.isfinite(val)


class TestMultinomialPmf:
    def test_empty_product(self):
        probs = Composition([0.4, 0.6])
        assert multinomial_log_pmf(0, probs, CountVector([0, 0])) == 0.0

    def test_two_trials(self):
        probs = Composition([0.5, 0.5])
        assert multinomial_log_pmf(2, probs, CountVector([1, 1])) == pytest.approx(
            math.log(0.5), rel=1e-14
        )

    def test_enumeration_normalizes(self):
        probs = Composition([0.2, 0.3, 0.5])
        terms = [multinomial_log_pmf(3, probs, x) for x in _count_vectors(3, 3)]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-12)

    def test_total_mismatch(self):
        with pytest.raises(ValueError, match="total"):
            multinomial_log_pmf(3, Composition([0.5, 0.5]), CountVector([1, 1]))


class TestDirichletMultinomialPmf:
    def test_uniform_shapes_n3(self):
        # r = (1,1,1), m = 2: uniform over the C(4,2) = 6 compositions.
        for x in _count_vectors(3, 2):
            assert dirichlet_multinomial_log_pmf([1.0, 1.0, 1.0], 2, x) == pytest.approx(
                math.log(1.0 / 6.0), rel=1e-13
            )

    def test_uniform_shapes_n2(self):
        assert dirichlet_multinomial_log_pmf([1.0, 1.0], 4, CountVector([1, 3])) == pytest.approx(
            math.log(0.2), rel=1e-13
        )

    def test_enumeration_normalizes_fractional_shapes(self):
        terms = [
            dirichlet_multinomial_log_pmf([2.0, 1.0, 0.5], 6, x)
            for x in _count_vectors(3, 6)
        ]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-10)

    def test_accepts_gamma_mixture_params(self):
        params = GammaMixtureParams([2.0, 1.0, 0.5], 123.0)  # scale irrelevant
        x = CountVector([3, 2, 1])
        assert dirichlet_multinomial_log_pmf(params, 6, x) == dirichlet_multinomial_log_pmf(
            [2.0, 1.0, 0.5], 6, x
        )

    def test_joint_permutation_invariance_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            shapes = rng.uniform(0.2, 5.0, size=n)
            x = rng.integers(0, 6, size=n)
            perm = rng.permutation(n)
            base = dirichlet_multinomial_log_pmf(shapes, int(x.sum()), CountVector(x))
            permuted = dirichlet_multinomial_log_pmf(
                shapes[perm], int(x.sum()), CountVector(x[perm])
            )
            assert permuted == base

    def test_total_mismatch(self):
        with pytest.raises(ValueError, match="total"):
            dirichlet_multinomial_log_pmf([1.0, 1.0], 3, CountVector([1, 1]))


class TestBetaBinomialPmf:
    def test_uniform_case(self):
        params = BetaBinomialParams(1.0, 1.0, 5)
        assert beta_binomial_log_pmf(params, 3) == pytest.approx(math.log(1.0 / 6.0), rel=1e-13)

    def test_symmetry_exact(self):
        params = BetaBinomialParams(2.5, 2.5, 9)
        for k in range(10):
            assert beta_binomial_log_pmf(params, k) == beta_binomial_log_pmf(params, 9 - k)

    def test_merge_oracle(self):
        # a=2, b=3, m=7 equals the Dirichlet-multinomial with r=(2,1.5,1.5),
        # category 1 fixed at k and categories 2-3 summed to m-k.
        m = 7
        bb = BetaBinomialParams(2.0, 3.0, m)
        r = [2.0, 1.5, 1.5]
        for k in range(m + 1):
            terms = [
                dirichlet_multinomial_log_pmf(r, m, CountVector([k, j, m - k - j]))
                for j in range(m - k + 1)
            ]
            assert beta_binomial_log_pmf(bb, k) == pytest.approx(
                log_sum_exp(terms), rel=1e-10, abs=1e-12
            )

    def test_k_beyond_m(self):
        with pytest.raises(ValueError):
            beta_binomial_log_pmf(BetaBinomialParams(1.0, 1.0, 5), 6)

    def test_normalizes(self):
        params = BetaBinomialParams(0.7, 2.3, 11)
        terms = [beta_binomial_log_pmf(params, k) for k in range(12)]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-12)


class TestNormalizedNbPmf:
    def setup_method(self):
        self.params = GammaMixtureParams([1.0, 1.0], 1.0)  # R=2, p=0.5

    def test_zero_total_atom(self):
        assert normalized_nb_log_pmf(self.params, 0, 0, 0) == pytest.approx(
            math.log(0.25), rel=1e-13
        )

    def test_m1_uniform_halves(self):
        for k in (0, 1):
            assert normalized_nb_log_pmf(self.params, 0, k, 1) == pytest.approx(
                math.log(0.125), rel=1e-13
            )

    def test_double_sum_normalizes(self):
        terms = [
            normalized_nb_log_pmf(self.params, 0, k, m)
            for m in range(401)
            for k in range(m + 1)
        ]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-9)

    def test_component_selects_shape(self):
        params = GammaMixtureParams([2.0, 1.0, 1.0], 0.5)
        # Merging the other components: component 0 has a=2, b=2.
        expected = negative_binomial_log_pmf(4.0, 1.0 / 3.0, 3) + beta_binomial_log_pmf(
            BetaBinomialParams(2.0, 2.0, 3), 1
        )
        assert normalized_nb_log_pmf(params, 0, 1, 3) == pytest.approx(expected, rel=1e-13)

    def test_errors(self):
        with pytest.raises(ValueError):
            normalized_nb_log_pmf(self.params, 0, 2, 1)  # k > m
        with pytest.raises(ValueError):
            normalized_nb_log_pmf(self.params, 5, 0, 1)  # bad component
        with pytest.raises(ValueError):
            normalized_nb_log_pmf(GammaMixtureParams([2.0], 1.0), 0, 0, 1)  # nothing to merge

    @pytest.mark.parametrize("shapes, component", [
        ([1e16, 0.3], 0), ([0.3, 1e16], 1), ([1e16, 0.2, 0.1], 0), ([2.0**60, 100.0], 0)])
    def test_one_shape_dwarfing_the_rest(self, shapes, component):
        # R - r_c rounds to 0 as a difference; the rest's own sum does not.
        params = GammaMixtureParams(shapes, 0.5)
        want = _mpmath_pair_log_mass(shapes, component)(1, 2, 0.5)
        assert _mixed_error(normalized_nb_log_pmf(params, component, 1, 2), want) <= 1e-13
        rows = distributions.normalized_nb_log_pmf_rows(params, component, [0, 1], [0, 2])
        assert _mixed_error(rows[1], want) <= 1e-13
        assert rows.tolist() == [normalized_nb_log_pmf(params, component, 0, 0),
                                 normalized_nb_log_pmf(params, component, 1, 2)]

    def test_shapes_summing_past_the_log_gamma_overflow(self):
        # R = 2.6e305 overflows log G(R), which neither component's mass needs.
        params = GammaMixtureParams([1.3e305, 1.3e305], 1.0)
        want = _mpmath_pair_log_mass([1.3e305, 1.3e305], 0)(1, 3, 1.0)
        assert _mixed_error(normalized_nb_log_pmf(params, 0, 1, 3), want) <= 1e-13


# Shapes 1e-2 to 1e3 and scales 0.05 to 20.  Near the mode of large
# shapes a log mass of size 10 is a difference of log-gammas of size 10^4,
# and its error is set by their rounding (_rounding_floor): it is within
# 1e-13 only relative to them.  A saddle-point form of the NB mass, in
# place of the log-gamma difference, would remove that floor.
GRID_SHAPES = [[0.01, 0.02], [0.3, 7.0, 2.5], [7.0, 0.3], [1000.0, 1000.0], [1000.0, 0.01],
               [0.01, 1000.0], [0.05, 40.0, 0.6]]
GRID_SCALES = [0.05, 1.0, 20.0]


@pytest.mark.parametrize("shapes", GRID_SHAPES)
def test_pair_masses_match_mpmath(shapes):
    # Totals up to 2000, each with k at both ends, a third and a half.
    m = np.array([0, 1, 2, 7, 60, 333, 2000]).repeat(4)
    k = m * np.tile([0, 2, 3, 6], 7) // 6
    for component in range(len(shapes)):
        want = _mpmath_pair_log_mass(shapes, component)
        for scale in GRID_SCALES:
            params = GammaMixtureParams(shapes, scale)
            got = distributions.normalized_nb_log_pmf_rows(params, component, k, m)
            for got_i, k_i, m_i in zip(got.tolist(), k.tolist(), m.tolist()):
                want_i = want(k_i, m_i, scale)
                floor = _rounding_floor(params.total_shape, params.success_prob, m_i)
                assert abs(got_i - want_i) <= max(1e-13 * max(1, abs(want_i)), floor), (
                    component, scale, k_i, m_i)


@pytest.mark.parametrize("shapes, scale", [
    ([0.01, 0.02], 20.0), ([1000.0, 1000.0], 0.05), ([7.0, 0.3], 1.0), ([1000.0, 0.01], 0.05),
    ([0.3, 7.0, 2.5], 1.0)])
def test_value_masses_match_mpmath(shapes, scale):
    # Every reduced value with denominator 1 to 8, summed over its
    # multiples below the bound.
    params = GammaMixtureParams(shapes, scale)
    values = sorted({Fraction(k, m) for m in range(1, 9) for k in range(m + 1)})
    log_mass, bound = distributions._value_pmf_rows(
        params, 0, np.array([q.numerator for q in values]),
        np.array([q.denominator for q in values]), 1e-12)
    assert bound <= 2000
    pair = _mpmath_pair_log_mass(shapes, 0)
    for q, got in zip(values, log_mass.tolist()):
        totals = range(q.denominator, bound + 1, q.denominator)
        with mpmath.workdps(50):
            logs = [pair(m * q.numerator // q.denominator, m, scale) for m in totals]
            want = mpmath.log(mpmath.fsum(mpmath.exp(t) for t in logs))
            # A log-sum-exp errs by the mass-weighted mean of its terms' errors.
            floor = mpmath.fsum(
                mpmath.exp(t - want) * _rounding_floor(params.total_shape, params.success_prob, m)
                for t, m in zip(logs, totals))
        assert abs(got - want) <= max(1e-14 * max(1, abs(want)), floor), q


class TestNbMassAtLargeShapes:
    # From R = 10^6 on, log G(m+R) - log G(R) is Stirling's series, in the
    # mass functions and in the truncation bound alike.  NB(1e15, 1e-15) is
    # Poisson(1) to within 1e-15; as a difference of log-gammas near R log R
    # its masses for totals 0..14 summed to 0.499.
    SHAPES = GammaMixtureParams([1e15, 1e15], 1e-15)

    def test_masses_up_to_the_bound_sum_to_one(self):
        bound = nb_truncation_bound(1e15, 1e-15)
        logs = distributions.negative_binomial_log_pmf_rows(1e15, 1e-15, np.arange(bound + 1))
        assert bound == 14
        assert abs(math.expm1(log_sum_exp(logs))) <= 1e-12

    def test_pair_mass_in_the_poisson_limit(self):
        # Two independent Poisson(1) counts: the pair (1, 2) has mass e^-2.
        got = normalized_nb_log_pmf(self.SHAPES, 0, 1, 2)
        assert abs(got + 2.0) <= 1e-12
        assert distributions.normalized_nb_log_pmf_rows(self.SHAPES, 0, [1], [2]).tolist() == [got]

    def test_value_mass_in_the_poisson_limit(self):
        # Y = 1/2 where both counts equal some j >= 1: the sum over j of
        # e^-2 / j!^2 is e^-2 (I0(2) - 1).
        with mpmath.workdps(40):
            want = mpmath.log(mpmath.exp(-2) * (mpmath.besseli(0, 2) - 1))
        got = normalized_nb_value_pmf(self.SHAPES, 0, (1, 2)).log_mass
        assert abs(got - want) <= 1e-12

    def test_grid_matches_mpmath(self):
        # Half the settings in the Poisson limit, at means 0.1 to 100 and
        # totals up to 8 sd past the mean; half at p in (0.02, 0.98).
        rng = np.random.default_rng(28)
        for i in range(100):
            big_r = 10.0 ** rng.uniform(6.0, 308.0)
            if i % 2:
                mean = 10.0 ** rng.uniform(-1.0, 2.0)
                p = mean / (big_r + mean)
                spread = math.sqrt(mean)
                m = [0, 1, int(mean), int(mean + 3 * spread) + 1, int(mean + 8 * spread) + 10]
            else:
                p = rng.uniform(0.02, 0.98)
                m = [0, 1, 7, 60, 333]
            got = distributions.negative_binomial_log_pmf_rows(big_r, p, m).tolist()
            assert got == [negative_binomial_log_pmf(big_r, p, m_i) for m_i in m]
            for got_i, m_i in zip(got, m):
                want = _mpmath_nb_log_mass(big_r, p, m_i)
                assert _mixed_error(got_i, want) <= 1e-11, (big_r, p, m_i)


def _nb_tail(bound, big_r, p):
    """NB mass beyond ``bound``; scipy's p is the weight of the fixed factor."""
    return nbinom.sf(bound, big_r, 1.0 - p)


def _assert_smallest_bound(bound, big_r, p, tail_mass):
    # 1 % slack for scipy's own error in a far tail, but at most 1e-9,
    # which a tail near 1 needs to tell one total from the next.
    slack = min(0.01 * tail_mass, 1e-9)
    assert _nb_tail(bound, big_r, p) < tail_mass + slack
    assert bound == 0 or _nb_tail(bound - 1, big_r, p) >= tail_mass - slack


class TestNbTruncationBound:
    def test_bound_is_smallest(self):
        big_r, p = 2.0, 0.5
        bound = nb_truncation_bound(big_r, p, 1e-12)
        mass = [math.exp(negative_binomial_log_pmf(big_r, p, m)) for m in range(bound + 1)]
        assert 1.0 - sum(mass) < 1e-12
        assert 1.0 - sum(mass[:-1]) >= 1e-12

    def test_large_shape_where_the_zero_mass_underflows(self):
        # (1/2)^2000 underflows to 0.0; a linear recurrence from it never
        # moves, so the bound used to spin 10^7 steps and raise.
        bound = nb_truncation_bound(2000.0, 0.5)
        _assert_smallest_bound(bound, 2000.0, 0.5, 1e-12)

    def test_no_cancellation_in_the_tail(self):
        # No underflow here: 1 - CDF cancelled and never fell below 1e-14.
        big_r, p = 298.67222488483714, 0.5862091361899134
        _assert_smallest_bound(nb_truncation_bound(big_r, p, 1e-14), big_r, p, 1e-14)

    def test_smallest_bound_not_one_short(self):
        # 1 - CDF returned 891, whose true tail is 3.4e-14.
        big_r, p = 166.76667029982772, 0.7476362268226904
        assert nb_truncation_bound(big_r, p, 1e-14) == 902
        assert _nb_tail(891, big_r, p) > 3e-14

    def test_bound_below_the_mode_at_large_shape(self):
        # The bound's window once widened back to total 0 here and refused:
        # "needs totals 0..1014158, more than 1000000 at once".
        for big_r, tail_mass in ((1e6, 0.999), (1e7, 0.9)):
            bound = nb_truncation_bound(big_r, 0.5, tail_mass)
            assert _nb_tail(bound, big_r, 0.5) < tail_mass <= _nb_tail(bound - 1, big_r, 0.5)

    def test_steep_tail_far_below_the_smallest_float(self):
        # p = 1e-30: the mass at the walk's start, total 17, is about
        # 1e-510 and no float; the bound is 1, whose tail is about 1e-60.
        assert nb_truncation_bound(1.0, 1e-30, 1e-35) == 1
        assert nb_truncation_bound(1.0, 1e-30, 1e-25) == 0
        # Every mass past 0 lies below 2^-1022 of tail_mass; the mass at 0
        # is 1, which is 2^1074 tail_mass, and its exp overflowed.  The mass
        # beyond 0 is about R p = 5e-634.
        assert nb_truncation_bound(1e-310, 5e-324, 5e-324) == 0
        assert nb_truncation_bound(1e-300, 1e-300, 5e-324) == 0
        # NB(1e300, 1e-300) is Poisson(1) to 1e-300, whose mass beyond 13
        # is 4.5e-12 and beyond 14 is 3.0e-13.
        assert nb_truncation_bound(1e300, 1e-300) == 14

    def test_bound_at_large_shape_equals_a_50_digit_oracle(self):
        # R from 1e8 to 1e15, mean 1 to 100: there a difference of two
        # log-gammas near R log R loses bits in proportion to R, and moved
        # the bound by up to 3 totals when it set the walk's one NB mass.
        rng = np.random.default_rng(5)
        for _ in range(40):
            big_r, mean = 10.0 ** rng.uniform(8, 15), 10.0 ** rng.uniform(0, 2)
            p, tail_mass = mean / big_r, 10.0 ** rng.uniform(-14, -3)
            assert nb_truncation_bound(big_r, p, tail_mass) == _mpmath_bound(big_r, p, tail_mass)
        assert nb_truncation_bound(1e15, 1e-15) == 14
        # Poisson(1e8) to 1e-292: a 30-digit suffix sum puts its mass beyond
        # 100070352 at 1.00030e-12 and beyond 100070353 at 9.9958e-13.
        assert nb_truncation_bound(1e300, 1e-292) == 100070353

    def test_log_walk_stops_at_the_cap(self, monkeypatch):
        # An NB mass at M_hi far too small, as a cancelling log-gamma
        # difference once gave at R = 1e300, keeps the walk in log space;
        # it stops after 10^6 totals, as the walk proper does.
        tail_bound = distributions._nb_tail_bound

        def too_small(big_r, p, m):
            log_pmf, log_beyond, r = tail_bound(big_r, p, m)
            return log_pmf - 1e4, log_beyond - 1e4, r

        monkeypatch.setattr(distributions, "_nb_tail_bound", too_small)
        with pytest.raises(ValueError, match="more than 1000000 at once"):
            nb_truncation_bound(1e8, 0.5)

    def test_tail_mass_near_one_lies_below_the_mode(self):
        for tail_mass in (0.3, 0.5, 0.9, 0.999):
            _assert_smallest_bound(nb_truncation_bound(40.0, 0.5, tail_mass), 40.0, 0.5, tail_mass)

    @given(
        st.floats(1e-2, 3e3),
        st.floats(0.02, 0.98),
        st.sampled_from((1e-9, 1e-12, 1e-14)),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_is_smallest_against_scipy(self, big_r, p, tail_mass):
        _assert_smallest_bound(nb_truncation_bound(big_r, p, tail_mass), big_r, p, tail_mass)

    def test_errors(self):
        with pytest.raises(ValueError, match="tail_mass"):
            nb_truncation_bound(2.0, 0.5, 0.0)
        with pytest.raises(ValueError, match=r"^R must be a finite number > 0, got -1\.0$"):
            nb_truncation_bound(-1.0, 0.5)
        with pytest.raises(ValueError, match=r"^p must lie in \(0, 1\), got 1\.0$"):
            nb_truncation_bound(2.0, 1.0)
        past_the_mode = r"needs totals 999999999999999\.\.1000000447213611, more than 1000000 at once$"
        with pytest.raises(ValueError, match=past_the_mode):
            nb_truncation_bound(1e15, 0.5)
        # The walk down from 10 sd past the mode needs 13 sd = 1.2e6 totals.
        with pytest.raises(ValueError, match="more than 1000000 at once"):
            nb_truncation_bound(4e9, 0.5, 0.999)

    def test_mode_past_float64_is_a_value_error(self):
        # (R - 1) p / (1 - p) overflows: no total can hold the mode.
        with pytest.raises(ValueError, match=r"^nb_truncation_bound: the mode of "
                           r"NB\(1\.7976931348623157e\+308, 0\.9\) overflows float64$"):
            nb_truncation_bound(sys.float_info.max, 0.9)


def _mpmath_bound(big_r, p, tail_mass):
    """The smallest M whose NB mass beyond M is below ``tail_mass``, at
    50 digits: the mass 20 sd past the mode by log-gammas, every mass below
    it by the ratio pmf(m-1)/pmf(m), summed down until the sum reaches
    ``tail_mass`` (at mean 100 at most, what lies beyond is below 1e-40)."""
    with mpmath.workdps(50):
        big_r, p = mpmath.mpf(big_r), mpmath.mpf(p)
        m = int((big_r - 1) * p / (1 - p) + 32 + 20 * mpmath.sqrt(big_r * p) / (1 - p))
        term = mpmath.exp(mpmath.loggamma(m + big_r) - mpmath.loggamma(big_r)
                          - mpmath.loggamma(m + 1) + big_r * mpmath.log1p(-p) + m * mpmath.log(p))
        tail = mpmath.mpf(0)
        while tail + term < tail_mass:
            tail += term
            term *= m / (p * (m - 1 + big_r))
            m -= 1
        return m


def _oracle_tails(big_r, p, tail_mass, bound):
    """The NB mass beyond ``bound`` and beyond ``bound - 1``, each divided
    by ``tail_mass``: suffix sums by ``math.fsum`` of the exps of NB log
    masses (the batch form, bit for bit the scalar's) taken relative to
    ``tail_mass``, so that no term underflows.  The sum runs past the mode
    to where a term falls below 2^-80 of ``tail_mass``."""
    mode = max(0, math.ceil((big_r - 1.0) * p / (1.0 - p)))
    step = 64 + math.ceil(4.0 * math.sqrt(big_r * p) / (1.0 - p))
    terms, start = [], max(0, bound)
    while True:
        m = np.arange(start, start + step)
        logs = distributions.negative_binomial_log_pmf_rows(big_r, p, m) - math.log(tail_mass)
        terms += np.exp(logs).tolist()
        start += step
        if start > mode and logs[-1] < -80.0 * math.log(2.0):
            break
    return math.fsum(terms[1:]), math.fsum(terms)


def test_bound_equals_a_suffix_sum_oracle():
    # A seeded grid over R in [1e-2, 1e6], p in [0.02, 0.98] and
    # tail_mass in [1e-300, 0.999], with a subnormal tail_mass besides:
    # the bound is the smallest M whose oracle tail is below tail_mass,
    # wherever that tail at M and at M - 1 lies more than 1e-9 relative
    # from tail_mass (closer, the oracle's own rounding decides).
    rng = np.random.default_rng(24)
    tails = (1e-300, 1e-100, 1e-12, 1e-6, 0.1, 0.5, 0.9, 0.999, 5e-324)
    starts, compared = set(), 0
    for i in range(90):
        big_r, p = 10.0 ** rng.uniform(-2.0, 6.0), rng.uniform(0.02, 0.98)
        tail_mass = tails[i % len(tails)]
        bound = nb_truncation_bound(big_r, p, tail_mass)
        mode = max(0, math.ceil((big_r - 1.0) * p / (1.0 - p)))
        starts.add("at zero" if mode == 0 else "past zero" if bound >= mode else "below the mode")
        beyond, from_bound = _oracle_tails(big_r, p, tail_mass, bound)
        if abs(beyond - 1.0) > 1e-9 and abs(from_bound - 1.0) > 1e-9:
            assert beyond < 1.0 and (bound == 0 or from_bound >= 1.0), (big_r, p, tail_mass)
            compared += 1
    assert starts == {"at zero", "past zero", "below the mode"}
    assert compared >= 85


# A scale past about 2**53 rounds p = scale / (1 + scale) to 1.0.
P_ROUNDS_TO_ONE = {
    "normalized_nb_log_pmf": lambda params: normalized_nb_log_pmf(params, 0, 1, 2),
    "normalized_nb_log_pmf_rows": lambda params: distributions.normalized_nb_log_pmf_rows(
        params, 0, [1], [2]),
    "normalized_nb_value_pmf": lambda params: normalized_nb_value_pmf(params, 0, (1, 2)),
}


@pytest.mark.parametrize("scale", [1e300, 2.0**60])
@pytest.mark.parametrize("name", P_ROUNDS_TO_ONE)
def test_success_prob_rounding_to_one_names_the_scale(name, scale):
    with pytest.raises(ValueError) as info:
        P_ROUNDS_TO_ONE[name](GammaMixtureParams([1.0, 1.0], scale))
    assert str(info.value) == (
        f"GammaMixtureParams scale {scale!r} is too large: p = scale / (1 + scale) "
        "rounds to 1.0, and the NB total needs p < 1")


class TestNormalizedNbValuePmf:
    def setup_method(self):
        self.params = GammaMixtureParams([1.0, 1.0], 1.0)

    def test_zero_value_aggregates_all_zero_numerators(self):
        out = normalized_nb_value_pmf(self.params, 0, Fraction(0, 1))
        manual = log_sum_exp(
            [normalized_nb_log_pmf(self.params, 0, 0, m) for m in range(1, out.truncation_bound + 1)]
        )
        assert out.log_mass == pytest.approx(manual, rel=1e-13)

    def test_half_aggregates_multiples(self):
        out = normalized_nb_value_pmf(self.params, 0, (1, 2))
        bound = out.truncation_bound
        manual = log_sum_exp(
            [
                normalized_nb_log_pmf(self.params, 0, j, 2 * j)
                for j in range(1, bound // 2 + 1)
            ]
        )
        assert out.log_mass == pytest.approx(manual, rel=1e-13)

    def test_pair_input_reduced(self):
        # 2/4 and 1/2 are the same value and aggregate the same mass.
        a = normalized_nb_value_pmf(self.params, 0, (1, 2))
        b = normalized_nb_value_pmf(self.params, 0, (2, 4))
        assert a == b

    def test_values_partition_pair_mass(self):
        # All reduced rationals with denominator <= 50, plus the m=0 atom,
        # carry at least the pair mass below the truncation bound.
        rationals = {Fraction(k, m) for m in range(1, 51) for k in range(m + 1)}
        logs = [normalized_nb_value_pmf(self.params, 0, q).log_mass for q in sorted(rationals)]
        atom = normalized_nb_log_pmf(self.params, 0, 0, 0)
        total = math.exp(log_sum_exp(logs + [atom]))
        bound = nb_truncation_bound(2.0, 0.5, 1e-12)
        nb_tail = 1.0 - sum(
            math.exp(negative_binomial_log_pmf(2.0, 0.5, m)) for m in range(bound + 1)
        )
        assert total >= 1.0 - max(nb_tail, 0.0) - 1e-9
        assert total <= 1.0 + 1e-9

    def test_large_shapes(self):
        # R = 3000: the NB mass at 0 underflows, which used to break the bound.
        params = GammaMixtureParams([1500.0, 1500.0], 1.0)
        out = normalized_nb_value_pmf(params, 0, (1, 2))
        assert math.isfinite(out.log_mass)
        pairs = [
            normalized_nb_log_pmf(params, 0, j, 2 * j)
            for j in range(1, out.truncation_bound // 2 + 1)
        ]
        assert out.log_mass == log_sum_exp(pairs)

    def test_batch_equals_pair_loop_bitwise(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            params = GammaMixtureParams(np.exp(rng.uniform(-3.0, 4.0, n)), np.exp(rng.uniform(-2.5, 1.0)))
            component = int(rng.integers(0, n))
            m = int(rng.integers(1, 9))
            k = int(rng.integers(0, m + 1))
            tail_mass = float(rng.choice([1e-9, 1e-12, 1e-14]))
            out = normalized_nb_value_pmf(params, component, (k, m), tail_mass)
            q = Fraction(k, m)
            pairs = [
                normalized_nb_log_pmf(params, component, j * q.numerator, j * q.denominator)
                for j in range(1, out.truncation_bound // q.denominator + 1)
            ]
            assert out.truncation_bound == nb_truncation_bound(
                params.total_shape, params.success_prob, tail_mass
            )
            assert out.log_mass == log_sum_exp(pairs)

    def test_batch_equals_scalar_bitwise(self):
        # Every rational with denominator <= 11, 0/1 and 1/1 included, at
        # random parameters and at a small bound that leaves some values
        # with no multiple below it (mass -inf).
        rationals = sorted({Fraction(k, m) for m in range(1, 12) for k in range(m + 1)})
        k = np.array([q.numerator for q in rationals])
        m = np.array([q.denominator for q in rationals])
        rng = np.random.default_rng(29)
        settings = [(GammaMixtureParams([0.05, 0.05], 0.01), 0, 1e-12)]
        for _ in range(40):
            n = int(rng.integers(2, 5))
            params = GammaMixtureParams(np.exp(rng.uniform(-3.0, 4.0, n)), np.exp(rng.uniform(-2.5, 1.0)))
            settings.append((params, int(rng.integers(0, n)), float(rng.choice([1e-9, 1e-12, 1e-14]))))
        empty = 0
        for params, component, tail_mass in settings:
            log_mass, bound = distributions._value_pmf_rows(params, component, k, m, tail_mass)
            scalar = [normalized_nb_value_pmf(params, component, q, tail_mass) for q in rationals]
            assert [out.log_mass for out in scalar] == log_mass.tolist()
            assert {out.truncation_bound for out in scalar} == {bound}
            empty += int((log_mass == -math.inf).sum())
            assert ((log_mass == -math.inf) == (m > bound)).all()
        assert empty > 0
        # One value with more than a thousand multiples, past numpy's
        # blocked pairwise sum.
        params = GammaMixtureParams([1000.0, 1000.0], 1.0)
        log_mass, bound = distributions._value_pmf_rows(
            params, 0, np.array([1]), np.array([2]), 1e-12)
        assert bound // 2 > 1000
        assert normalized_nb_value_pmf(params, 0, (1, 2)).log_mass == log_mass[0]

    def test_equals_the_pair_rows_at_its_multiples_bitwise(self):
        # The log mass is log_sum_exp of the pair masses at (j k, j m) for
        # j up to bound // m, and the value's row of the batch form.
        rng = np.random.default_rng(21)
        empty = 0
        for _ in range(200):
            params = GammaMixtureParams(np.exp(rng.uniform(-2.0, 3.0, 2)), np.exp(rng.uniform(-2.5, 1.0)))
            tail_mass = float(rng.choice([1e-12, 0.5, 0.999]))
            den = int(rng.integers(1, 9))
            q = Fraction(int(rng.integers(0, den + 1)), den)
            out = normalized_nb_value_pmf(params, 0, q, tail_mass)
            log_mass, bound = distributions._value_pmf_rows(
                params, 0, np.array([q.numerator]), np.array([q.denominator]), tail_mass)
            assert (out.log_mass, out.truncation_bound) == (log_mass[0], bound)
            j = np.arange(1, bound // q.denominator + 1)
            if j.size:
                pairs = distributions.normalized_nb_log_pmf_rows(
                    params, 0, q.numerator * j, q.denominator * j)
                assert out.log_mass == log_sum_exp(pairs)
            else:
                assert out.log_mass == -math.inf
                empty += 1
        assert empty > 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            normalized_nb_value_pmf(self.params, 0, (0, 0))
        with pytest.raises(ValueError):
            normalized_nb_value_pmf(self.params, 0, (3, 2))

    def test_total_whose_mode_overflows_is_a_value_error(self):
        params = GammaMixtureParams([8e307, 8e307], 9.0)
        with pytest.raises(ValueError, match=r"the mode of NB\(1\.6e\+308, 0\.9\) overflows"):
            normalized_nb_value_pmf(params, 0, (1, 2))


# Pairs of factories: two calls of the first give equal objects, the
# second gives one that differs from them.
VALUE_OBJECTS = {
    "DirichletParams": (lambda: DirichletParams([1.0, 2.0]), lambda: DirichletParams([1.0, 3.0])),
    "GammaMixtureParams": (
        lambda: GammaMixtureParams([1.0, 2.0], 0.5),
        lambda: GammaMixtureParams([1.0, 2.0], 0.7),
    ),
    "CountVector": (lambda: CountVector([1, 2]), lambda: CountVector([2, 1])),
    "Composition": (lambda: Composition([0.25, 0.75]), lambda: Composition([0.75, 0.25])),
    "RatioVector": (lambda: RatioVector([1.0, 2.0]), lambda: RatioVector([2.0, 1.0])),
    "LogRatioVector": (lambda: LogRatioVector([0.5, -1.0]), lambda: LogRatioVector([-1.0, 0.5])),
    "BetaBinomialParams": (
        lambda: BetaBinomialParams(1.0, 2.0, 3),
        lambda: BetaBinomialParams(1.0, 2.0, 4),
    ),
}


# A point of another dimension than the parameters is refused: one point
# and a batch, for each family.  (call, start of the message)
DIMENSION_MISMATCHES = {
    "inverted_dirichlet_log_pdf": (
        lambda: inverted_dirichlet_log_pdf(DirichletParams([1.0, 1.0]), RatioVector([0.5, 2.0])),
        "dimension mismatch: alpha has 2 entries, so y needs 1, got 2"),
    "alr_dirichlet_log_pdf": (
        lambda: alr_dirichlet_log_pdf(DirichletParams([1.0, 1.0]), LogRatioVector([0.5, 2.0])),
        "dimension mismatch: alpha has 2 entries, so y needs 1, got 2"),
    "multinomial_log_pmf": (
        lambda: multinomial_log_pmf(3, Composition([0.5, 0.5]), CountVector([1, 1, 1])),
        "dimension mismatch: probs has 2 entries, x has 3"),
    "dirichlet_multinomial_log_pmf": (
        lambda: dirichlet_multinomial_log_pmf([1.0, 1.0], 3, CountVector([1, 1, 1])),
        "dimension mismatch: shapes has 2 entries, x has 3"),
    "multinomial_log_pmf_rows": (
        lambda: distributions.multinomial_log_pmf_rows(3, Composition([0.5, 0.5]), [[1, 1, 1]]),
        "dimension mismatch: probs has 2 entries, x has 3"),
    "dirichlet_multinomial_log_pmf_rows": (
        lambda: distributions.dirichlet_multinomial_log_pmf_rows([1.0, 1.0], 3, [[1, 1, 1]]),
        "dimension mismatch: shapes has 2 entries, x has 3"),
}


@pytest.mark.parametrize("name", DIMENSION_MISMATCHES)
def test_dimension_mismatch_refused(name):
    call, message = DIMENSION_MISMATCHES[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


class TestValueEquality:
    @pytest.mark.parametrize("name", VALUE_OBJECTS)
    def test_equal_by_value_and_hash_agrees(self, name):
        make, make_other = VALUE_OBJECTS[name]
        a, b, other = make(), make(), make_other()
        assert a == b and not a != b
        assert a != other and not a == other
        assert hash(a) == hash(b)
        assert a in [b] and len({a, b, other}) == 2
        assert a != "not a value object"

    def test_signed_zeros_are_equal_and_hash_alike(self):
        a, b = LogRatioVector([0.0, 1.0]), LogRatioVector([-0.0, 1.0])
        assert a == b and hash(a) == hash(b)


# The repr of the first object of each VALUE_OBJECTS pair, as the frozen
# dataclasses that the value objects once were printed it.
VALUE_REPRS = {
    "DirichletParams": "DirichletParams(alpha=array([1., 2.]))",
    "GammaMixtureParams": "GammaMixtureParams(shapes=array([1., 2.]), scale=0.5)",
    "CountVector": "CountVector(counts=array([1, 2]), total=3)",
    "Composition": "Composition(entries=array([0.25, 0.75]))",
    "RatioVector": "RatioVector(entries=array([1., 2.]), z=4.0)",
    "LogRatioVector": "LogRatioVector(entries=array([ 0.5, -1. ]), log_k=1.1041306053367284)",
    "BetaBinomialParams": "BetaBinomialParams(a=1.0, b=2.0, m=3)",
}
# The arrays built on first read: (attribute, dtype).
LAZY_ARRAYS = {"CountVector": ("counts", np.int64), "GammaMixtureParams": ("shapes", np.float64),
               "DirichletParams": ("alpha", np.float64)}
# Constructors that take a list, with one list each.
FROM_LISTS = {
    "DirichletParams": (DirichletParams, [1.0, 2.0]),
    "GammaMixtureParams": (lambda e: GammaMixtureParams(e, 0.5), [1.0, 2.0]),
    "CountVector": (CountVector, [1, 2]),
    "Composition": (Composition, [0.25, 0.75]),
    "RatioVector": (RatioVector, [1.0, 2.0]),
    "LogRatioVector": (LogRatioVector, [0.5, -1.0]),
}


def _read_lazy(obj):
    lazy = LAZY_ARRAYS.get(type(obj).__name__)
    if lazy is not None:
        getattr(obj, lazy[0])
    return obj


class TestValueObjectBehaviour:
    @pytest.mark.parametrize("name", VALUE_OBJECTS)
    def test_repr_is_the_dataclass_repr(self, name):
        assert repr(VALUE_OBJECTS[name][0]()) == VALUE_REPRS[name]

    @pytest.mark.parametrize("name", VALUE_OBJECTS)
    def test_frozen(self, name):
        obj = VALUE_OBJECTS[name][0]()
        field = VALUE_REPRS[name].split("(")[1].split("=")[0]  # the first, as the repr names it
        before = repr(obj)
        for attr in (field, "x"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{attr}'$"):
                setattr(obj, attr, 1)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{attr}'$"):
                delattr(obj, attr)
        assert repr(obj) == before

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("name", VALUE_OBJECTS)
    def test_pickle_and_deepcopy_round_trip(self, name, read):
        make = VALUE_OBJECTS[name][0]
        for restore in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy):
            obj = make()
            if read:
                _read_lazy(obj)
            got = restore(obj)
            assert type(got) is type(obj) and got == obj and hash(got) == hash(make())
            assert repr(got) == VALUE_REPRS[name]

    @pytest.mark.parametrize("name", LAZY_ARRAYS)
    def test_a_first_read_changes_no_equality_or_hash(self, name):
        make = VALUE_OBJECTS[name][0]
        unread_hash = hash(make())
        read = _read_lazy(make())
        assert hash(read) == unread_hash
        assert read == make() and make() == read

    @pytest.mark.parametrize("name", LAZY_ARRAYS)
    def test_lazy_array_is_read_only_typed_and_kept(self, name):
        attr, dtype = LAZY_ARRAYS[name]
        obj = VALUE_OBJECTS[name][0]()
        arr = getattr(obj, attr)
        assert arr.dtype == dtype and arr.shape == (2,) and not arr.flags.writeable
        assert getattr(obj, attr) is arr
        with pytest.raises(ValueError):
            arr[0] = 0

    @pytest.mark.parametrize("name", FROM_LISTS)
    def test_the_callers_list_is_not_kept(self, name):
        make, entries = FROM_LISTS[name]
        given = list(entries)
        obj = make(given)
        given[0] = given[1]
        given.append(given[0])
        assert obj == make(entries) and repr(obj) == repr(make(entries))


# Shapes whose log-gamma terms overflow float64: log Gamma is past the
# largest float from about 2.56e305 on, and 1e308 + 1e308 overflows.  Each
# form, one point and a batch, must raise ValueError, with no warning.  The
# NB family takes no log-gamma at R (see HUGE_NB_CALLS), so it is not here.
HUGE = (1e308, 1e306, 2.6e305, sys.float_info.max)
OVERFLOWING_CALLS = {
    "log_multivariate_beta": lambda s: special.log_multivariate_beta([s, s]),
    "log_multivariate_beta_rows": lambda s: special.log_multivariate_beta_rows([[s, s]]),
    "dirichlet_log_pdf": lambda s: dirichlet_log_pdf(
        DirichletParams([s, s]), Composition([0.5, 0.5])),
    "dirichlet_log_pdf_rows": lambda s: distributions.dirichlet_log_pdf_rows(
        [s, s], [[0.5, 0.5]]),
    "inverted_dirichlet_log_pdf": lambda s: inverted_dirichlet_log_pdf(
        DirichletParams([s, s]), RatioVector([1.0])),
    "alr_dirichlet_log_pdf_rows": lambda s: distributions.alr_dirichlet_log_pdf_rows(
        [s, s], [[0.0]]),
    "dirichlet_multinomial_log_pmf": lambda s: dirichlet_multinomial_log_pmf(
        [s, s], 2, CountVector([1, 1])),
    "dirichlet_multinomial_log_pmf_rows": lambda s: distributions.dirichlet_multinomial_log_pmf_rows(
        [s, s], 2, [[1, 1]]),
    "beta_binomial_log_pmf": lambda s: beta_binomial_log_pmf(
        BetaBinomialParams(s / 2, s / 2, 3), 1),
}


# Batch forms that once warned of inf - inf before they raised.
OVERFLOWING_BATCHES = {
    "log_multivariate_beta_rows": lambda: special.log_multivariate_beta_rows(
        [[sys.float_info.max, 1.0]]),
    "dirichlet_multinomial_log_pmf_rows": lambda: distributions.dirichlet_multinomial_log_pmf_rows(
        [2.6e305, 1.0], 1, [[1, 0]]),
}


class TestOverflowingShapes:
    @pytest.mark.parametrize("shape", HUGE)
    @pytest.mark.parametrize("name", OVERFLOWING_CALLS)
    def test_raises_value_error(self, name, shape):
        with pytest.raises(ValueError, match="overflows float64"):
            OVERFLOWING_CALLS[name](shape)

    @pytest.mark.parametrize("name", OVERFLOWING_BATCHES)
    def test_batch_raises_without_warning(self, name):
        with pytest.raises(ValueError, match=r"^log_gamma\(.*\) overflows float64$"):
            OVERFLOWING_BATCHES[name]()

    def test_largest_finite_values_unchanged(self):
        # Just below the log-gamma overflow the formulas still return numbers.
        assert math.isfinite(special.log_multivariate_beta([1e300, 1e300]))
        assert math.isfinite(negative_binomial_log_pmf(1e300, 0.5, 3))


# The NB family at the shapes above: (the library's log masses, their
# oracle values) for NB(s, p), p = scale / (1 + scale).  The pair mass of
# GammaMixtureParams([s, 1], scale) at (1, 3) is NB(s, p) at 1 times NB(1, p) at 2.
HUGE_NB_CALLS = {
    "negative_binomial_log_pmf": lambda s, p, scale: (
        [negative_binomial_log_pmf(s, p, 3)], [_mpmath_nb_log_mass(s, p, 3)]),
    "negative_binomial_log_pmf_rows": lambda s, p, scale: (
        distributions.negative_binomial_log_pmf_rows(s, p, [0, 3]).tolist(),
        [_mpmath_nb_log_mass(s, p, 0), _mpmath_nb_log_mass(s, p, 3)]),
    "normalized_nb_log_pmf": lambda s, p, scale: (
        [normalized_nb_log_pmf(GammaMixtureParams([s, 1.0], scale), 0, 1, 3)],
        [_mpmath_nb_log_mass(s, p, 1) + _mpmath_nb_log_mass(1.0, p, 2)]),
}


class TestNbFamilyAtHugeShapes:
    # The NB family once refused these shapes with "log_gamma(...) overflows
    # float64".  scipy's nbinom.logpmf is nan at all of them (its log-gammas
    # overflow), so in the Poisson limit, where NB(s, p) is Poisson(s p / (1-p))
    # to within 1e-300, scipy's Poisson mass is the second oracle.
    @pytest.mark.parametrize("poisson_limit", [False, True])
    @pytest.mark.parametrize("shape", HUGE)
    @pytest.mark.parametrize("name", HUGE_NB_CALLS)
    def test_matches_mpmath(self, name, shape, poisson_limit):
        scale = 2.0 / shape if poisson_limit else 1.0
        p = GammaMixtureParams([shape], scale).success_prob
        got, want = HUGE_NB_CALLS[name](shape, p, scale)
        assert all(type(value) is float for value in got)
        assert max(_mixed_error(g, w) for g, w in zip(got, want)) <= 1e-12
        if poisson_limit and name != "normalized_nb_log_pmf":
            with mpmath.workdps(40):
                rate = float(shape * mpmath.mpf(p) / (1 - mpmath.mpf(p)))
            m = [3] if len(got) == 1 else [0, 3]
            assert np.abs(np.array(got) - poisson.logpmf(m, rate)).max() <= 1e-12

    def test_one_point_and_batch_agree(self):
        for shape in HUGE:
            for p in (0.5, 2.0 / shape):
                rows = distributions.negative_binomial_log_pmf_rows(shape, p, [[0, 1], [3, 60]])
                assert rows.tolist() == [[negative_binomial_log_pmf(shape, p, m) for m in row]
                                         for row in ([0, 1], [3, 60])]


# Finite shapes whose sum overflows float64: the parameters are rejected
# when they are built, without a RuntimeWarning from the sum.
OVERFLOWING_SUMS = {
    "GammaMixtureParams": lambda: GammaMixtureParams([1e308, 1e308], 1.0),
    "DirichletParams": lambda: DirichletParams([1e308, 1e308]),
    "BetaBinomialParams": lambda: BetaBinomialParams(1e308, 1e308, 3),
    "shape vector": lambda: dirichlet_multinomial_log_pmf(
        [1e308, 1e308], 2, CountVector([1, 1])),
}


class TestOverflowingShapeSums:
    @pytest.mark.parametrize("name", OVERFLOWING_SUMS)
    def test_rejected_when_built(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                OVERFLOWING_SUMS[name]()

    def test_largest_finite_sums_accepted(self):
        assert GammaMixtureParams([8e307, 8e307], 1.0).total_shape == 1.6e308
        assert DirichletParams([8e307, 8e307]).total == 1.6e308
        assert BetaBinomialParams(8e307, 8e307, 3).a == 8e307
