"""Tests for the density and mass functions (exact values and identities)."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import nbinom

from countcomp import distributions
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
    enumerate_compositions,
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
from countcomp.distributions import count_rows
from countcomp.simplex import RowError


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

    def test_log_normalizer_computed_once(self, monkeypatch):
        params = DirichletParams([2.0, 3.0, 5.0])
        want = distributions.log_multivariate_beta(params.alpha)
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return want

        monkeypatch.setattr(distributions, "log_multivariate_beta", counted)
        x = Composition([0.2, 0.3, 0.5])
        first = dirichlet_log_pdf(params, x)
        assert dirichlet_log_pdf(params, x) == first
        assert params.log_normalizer() == want
        assert len(calls) == 1
        assert repr(params) == repr(DirichletParams([2.0, 3.0, 5.0]))


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
        terms = [multinomial_log_pmf(3, probs, x) for x in enumerate_compositions(3, 3)]
        assert math.exp(log_sum_exp(terms)) == pytest.approx(1.0, abs=1e-12)

    def test_total_mismatch(self):
        with pytest.raises(ValueError, match="total"):
            multinomial_log_pmf(3, Composition([0.5, 0.5]), CountVector([1, 1]))


class TestDirichletMultinomialPmf:
    def test_uniform_shapes_n3(self):
        # r = (1,1,1), m = 2: uniform over the C(4,2) = 6 compositions.
        for x in enumerate_compositions(3, 2):
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
            for x in enumerate_compositions(3, 6)
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


def _nb_tail(bound, big_r, p):
    """NB mass beyond ``bound``; scipy's p is the weight of the fixed factor."""
    return nbinom.sf(bound, big_r, 1.0 - p)


def _assert_smallest_bound(bound, big_r, p, tail_mass):
    # 1 % slack for scipy's own error in the tail.
    assert _nb_tail(bound, big_r, p) < tail_mass * 1.01
    assert bound == 0 or _nb_tail(bound - 1, big_r, p) >= tail_mass * 0.99


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
        with pytest.raises(ValueError, match="p in"):
            nb_truncation_bound(2.0, 1.0)
        with pytest.raises(ValueError, match="more than 1000000"):
            nb_truncation_bound(1e15, 0.5)


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

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            normalized_nb_value_pmf(self.params, 0, (0, 0))
        with pytest.raises(ValueError):
            normalized_nb_value_pmf(self.params, 0, (3, 2))


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


# Shapes whose log-gamma terms overflow float64: log Gamma is past the
# largest float from about 2.56e305 on, and 1e308 + 1e308 overflows.  Each
# form, one point and a batch, must raise ValueError, with no warning.
HUGE = (1e308, 1e306, 2.6e305, sys.float_info.max)
OVERFLOWING_CALLS = {
    "log_multivariate_beta": lambda s: distributions.log_multivariate_beta([s, s]),
    "log_multivariate_beta_rows": lambda s: distributions.log_multivariate_beta_rows([[s, s]]),
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
    "negative_binomial_log_pmf": lambda s: negative_binomial_log_pmf(s, 0.5, 3),
    "negative_binomial_log_pmf_rows": lambda s: distributions.negative_binomial_log_pmf_rows(
        s, 0.5, [0, 3]),
    "normalized_nb_log_pmf": lambda s: normalized_nb_log_pmf(
        GammaMixtureParams([s / 2, s / 2], 1.0), 0, 1, 3),
    "beta_binomial_log_pmf": lambda s: beta_binomial_log_pmf(
        BetaBinomialParams(s / 2, s / 2, 3), 1),
}


# Batch forms that once warned of inf - inf before they raised.
OVERFLOWING_BATCHES = {
    "log_multivariate_beta_rows": lambda: distributions.log_multivariate_beta_rows(
        [[sys.float_info.max, 1.0]]),
    "negative_binomial_log_pmf_rows": lambda: distributions.negative_binomial_log_pmf_rows(
        2.6e305, 0.5, [1]),
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
        assert math.isfinite(distributions.log_multivariate_beta([1e300, 1e300]))
        assert math.isfinite(negative_binomial_log_pmf(1e300, 0.5, 3))


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
