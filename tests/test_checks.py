"""Tests for the verification harness itself."""

import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import stats
from scipy.special import betainc, chdtrc, gammainc, smirnov

from countcomp import CheckReport, GammaMixtureParams, all_passed, run_all
from countcomp import checks, cli, simplex
from countcomp.checks import (
    _check_beta_binomial_merge,
    _check_conditional_multinomial,
    _check_dm_integral,
    _check_nb_normalization,
    _check_pi_independent_of_s,
    _composition_matrix,
    _decile_edges,
    _lemma_det,
    _simpson_rows,
    _transform_ks,
    _transform_pointwise,
)
from countcomp.simplex import LogRatioVector


class TestCompositionMatrix:
    def test_n2_m2(self):
        assert _composition_matrix(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]

    def test_counts_match_binomial_oracle(self):
        for n, m in ((2, 2), (3, 2), (4, 10), (5, 6), (1, 4)):
            items = [tuple(row) for row in _composition_matrix(n, m).tolist()]
            assert len(items) == math.comb(m + n - 1, n - 1)
            assert len(set(items)) == len(items)  # each exactly once
            assert all(sum(item) == m for item in items)
            # dm-symmetry indexes into this order, so pin it: lexicographic.
            brute = [p for p in itertools.product(range(m + 1), repeat=n) if sum(p) == m]
            assert items == brute

    def test_n4_m10_is_286(self):
        assert _composition_matrix(4, 10).shape == (286, 4)

    def test_m_zero(self):
        assert _composition_matrix(3, 0).tolist() == [[0, 0, 0]]


class TestSimpsonRows:
    def test_exact_on_a_cubic(self):
        # Simpson's rule integrates a cubic exactly, so both estimates
        # agree and the Richardson step adds nothing.
        calls = []

        def f(t):
            calls.append(t.size)
            return 4.0 * t**3 - 3.0 * t**2 + 2.0 * t + 1.0

        knots = np.array([-1.0, 0.0, 0.25, 0.5, 2.0])
        got = _simpson_rows(f, knots, 1e-12)
        exact = lambda t: t**4 - t**3 + t**2 + t
        np.testing.assert_allclose(got, np.diff(exact(knots)), rtol=1e-15, atol=1e-15)
        # Two calls of f: the N+1 knots and N midpoints, then the 2N
        # quarter points, so each shared knot is evaluated once.
        assert calls == [9, 8]

    def test_empty_interval_is_zero(self):
        # A repeated knot makes an empty gap, whose integral is exactly 0.
        assert _simpson_rows(np.exp, [0.7, 0.7], 1e-12).tolist() == [0.0]
        assert _simpson_rows(np.exp, [0.1, 0.7, 0.7, 0.9], 1.0)[1] == 0.0

    def test_equals_the_five_node_rule_on_each_gap_bit_for_bit(self):
        # The rule as taken on (a, b) pairs, with all five nodes of every
        # gap evaluated: sharing the knots changes no bit.
        def f(t):
            return ((t * t - 2.0) * t * t + 1.0) * t

        knots = np.append(0.0, np.sort(np.random.default_rng(137).uniform(0.0, 1.0, 3000)))
        knots[1000] = knots[999]  # and one repeated knot
        a, b = knots[:-1], knots[1:]
        mid = 0.5 * (a + b)
        fa, fm, fb, flm, frm = f(a), f(mid), f(b), f(0.5 * (a + mid)), f(0.5 * (mid + b))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        want = left + right + (left + right - whole) / 15.0
        assert _simpson_rows(f, knots, 1e-12).tolist() == want.tolist()

    def test_endpoint_singularity_is_refused(self):
        # t^-1/2 over [1e-15, 1]: the estimates on the whole and on the
        # halves differ by far more than 15 x 1e-12, and nothing bisects.
        with pytest.raises(ValueError, match=r"^Simpson's rule moves by .* on halving an "
                                             r"interval, more than 15 \* 1e-12$"):
            _simpson_rows(lambda t: t**-0.5, [1e-15, 1.0], 1e-12)


class TestDecileEdges:
    @pytest.mark.parametrize("n", [10**4, 3 * 10**4, 10**5])
    def test_equal_numpy_quantile_bit_for_bit(self, n):
        # The suite's sample sizes and a third between them, where the
        # virtual indices (n - 1) q fall on both sides of one half.
        rng = np.random.default_rng(n)
        lam1, lam2 = rng.gamma(3.0, 0.5, n), rng.gamma(2.0, 0.5, n)
        for values in (lam1 / (lam1 + lam2), np.round(lam1, 1)):  # and a sample with ties
            want = np.quantile(values, np.linspace(0.1, 0.9, 9))
            assert _decile_edges(values).tolist() == want.tolist()


class TestConditionalMultinomial:
    def test_passes_on_reference_settings(self):
        rng = np.random.default_rng(67)
        rep = _check_conditional_multinomial("n2-m2", (1.0, 1.0), 2, 30_000, rng, 67)
        assert rep.passed and not rep.inconclusive
        rep = _check_conditional_multinomial("n3-m3", (2.0, 1.0, 1.0), 3, 30_000, rng, 67)
        assert rep.passed and not rep.inconclusive

    def test_inconclusive_when_starved(self):
        rng = np.random.default_rng(71)
        rep = _check_conditional_multinomial("starved", (1.0, 1.0), 2, 40, rng, 71)
        assert rep.inconclusive
        assert not rep.passed
        assert rep.detail == "rates (1, 1), m=2: too few accepted samples to test"

    def test_detail_names_rates_and_total(self):
        # The scale-invariance row is this check at ten times the rates of
        # n2-m2; its detail says so.
        rng = np.random.default_rng(67)
        rep = _check_conditional_multinomial("x10", (10.0, 10.0), 20, 10_000, rng, 67)
        assert rep.detail == "rates (10, 10), m=20; p-value must exceed threshold"
        rows = {row[0]: row[1:3] for row in checks._suite("quick")}
        assert rows["conditional-multinomial-scale-invariance"] == (
            _check_conditional_multinomial, ((10.0, 10.0), 20))


class TestPiIndependence:
    def test_independence_not_rejected(self):
        rng = np.random.default_rng(73)
        params = GammaMixtureParams((1.0, 1.0), 1.0)
        rep = _check_pi_independent_of_s("independence", params, False, 30_000, rng, 73)
        assert rep.passed

    def test_negative_control_is_rejected(self):
        rng = np.random.default_rng(79)
        params = GammaMixtureParams((1.0, 1.0), 1.0)
        rep = _check_pi_independent_of_s("negative-control", params, True, 10_000, rng, 79)
        assert rep.passed  # i.e. the test DID reject the constructed dependence
        assert rep.statistic < 0.001


class TestDmIntegral:
    def test_uniform_case(self):
        rng = np.random.default_rng(89)
        rep = _check_dm_integral("n3-m2", (1.0, 1.0, 1.0), 2, 30_000, rng, 89)
        assert rep.passed

    def test_asymmetric_case(self):
        rng = np.random.default_rng(97)
        rep = _check_dm_integral("n2-m5", (2.0, 1.0), 5, 30_000, rng, 97)
        assert rep.passed


class TestNbNormalization:
    def test_covers_a_shape_past_the_series_threshold(self):
        # NB(1e15, 1e-15), Poisson(1) to within 1e-15, is among its settings;
        # as a difference of log-gammas its masses summed to 0.50.  Its bound
        # (16) and its gap (7e-16) are below those of the other settings.
        rep = _check_nb_normalization("nb", 0, None, -1)
        assert rep.passed and rep.size == 115 and rep.statistic < 1e-14


class TestBetaBinomialMerge:
    @pytest.mark.parametrize(
        "r,m",
        [((1.0, 1.0, 1.0), 4), ((2.0, 1.5, 1.5), 7), ((1.5, 2.5), 6), ((0.5, 1.0, 2.0, 0.7), 5)],
    )
    def test_exact_merge(self, r, m):
        rep = _check_beta_binomial_merge("merge", r, m, 0, None, 0)
        assert rep.passed
        assert rep.statistic <= 1e-10


class TestTransformDensity:
    def test_pointwise_both_transforms(self):
        rng = np.random.default_rng(101)
        for transform in ("ratio", "alr"):
            rep = _transform_pointwise(transform, transform, 60, rng, 101)
            assert rep.passed
            assert rep.statistic <= 1e-12

    def test_ks_both_transforms(self):
        rng = np.random.default_rng(103)
        rep = _transform_ks("ratio", "ratio", (1.0, 1.0), 20_000, rng, 103)
        assert rep.passed
        rep = _transform_ks("alr", "alr", (2.0, 3.0), 20_000, rng, 103)
        assert rep.passed

    @pytest.mark.parametrize("transform", ["ratio", "alr"])
    @pytest.mark.parametrize("alpha", [(1.0, 1.0), (2.0, 3.0), (3.5, 0.7), (1.2, 40.0)])
    def test_ks_cdf_matches_incomplete_beta(self, alpha, transform):
        # In the bounded coordinate t both n = 2 push-forwards are the
        # first Dirichlet component, so their CDF is Beta(a1, a2)'s.  At
        # the suite's alphas its density is a polynomial of degree <= 3,
        # which the rule integrates exactly; at the others the rule's
        # error estimate passes its bound and the CDF is refused.
        knots = np.sort(np.random.default_rng(127).beta(*alpha, size=1000))
        if alpha in ((3.5, 0.7), (1.2, 40.0)):
            with pytest.raises(ValueError, match="^Simpson's rule moves by "):
                checks._push_forward_cdf(np.array(alpha), transform, knots)
            return
        cdf = checks._push_forward_cdf(np.array(alpha), transform, knots)
        assert np.abs(cdf - betainc(*alpha, knots)).max() <= 1e-12

    @pytest.mark.parametrize(
        "transform,alpha,target",
        [("ratio", (1.0, 1.0), "inverted_dirichlet_log_pdf_rows"),
         ("alr", (2.0, 3.0), "alr_dirichlet_log_pdf_rows")],
    )
    def test_ks_cdf_comes_from_library_density(self, monkeypatch, transform, alpha, target):
        # Negative control: a library density 5% too large integrates to a
        # CDF that ends near e^0.05, which the KS test must reject.
        shifted = getattr(checks, target)
        monkeypatch.setattr(checks, target, lambda *args: shifted(*args) + 0.05)
        rng = np.random.default_rng(131)
        rep = _transform_ks(transform, transform, alpha, 10_000, rng, 131)
        assert not rep.passed and not rep.inconclusive
        assert rep.statistic < checks.P_FLOOR


# Each branch cut of scipy's KS p-value as a function of n: n D = 0.5, 1
# and n - 1; D = 0.5; n D^2 = 0.754693, 2.2, 4, 18 and 370; n D^1.5 = 1.4.
KS_CUTS = (
    lambda n: 0.5 / n, lambda n: 1 / n, lambda n: (n - 1) / n, lambda n: 0.5,
    *(lambda n, c=c: math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)),
    lambda n: (1.4 / n) ** (2 / 3),
)


def _uniform_cdf_with_d(n, d, sign):
    """Sorted CDF values of n points whose KS distance from the uniform law
    is d, up to rounding: the midpoints (i + 1/2) / n shifted by
    sign * (d - 1/2n), so D- (sign +1) or D+ (sign -1) attains it."""
    return np.clip((np.arange(n) + 0.5) / n + sign * (d - 0.5 / n), 0.0, 1.0)


def _assert_tails_close(got, want, rel):
    """Within ``rel`` relative of scipy's tails where these are at least
    1e-300; below that, where either may be subnormal, within 1e-300."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    normal, err = want >= 1e-300, np.abs(got - want)
    assert np.all(err[normal] <= rel * want[normal]), (err[normal] / want[normal]).max()
    assert np.all(err[~normal] <= 1e-300)


def _assert_ks_matches_kstest(n, targets):
    # D is equal bit for bit, and so is every p-value of a branch both
    # sides take.  Twice the one-sided tail computed in checks is within
    # 1e-9 relative.  Where scipy takes its exact kstwo branches (n D <= 1
    # and the Durbin-matrix region), the Pelz-Good expansion of checks is
    # within 1e-12 absolute.
    for i, d in enumerate(targets):
        cdf = _uniform_cdf_with_d(n, d, (-1) ** i)
        with mock.patch.object(checks, "_smirnov", wraps=checks._smirnov) as one_sided:
            got_d, got_p = checks._ks_test(cdf)
        res = stats.kstest(cdf, "uniform", method="exact")
        assert got_d == float(res.statistic)
        if one_sided.called:
            _assert_tails_close(got_p, res.pvalue, 1e-9)
        elif n * got_d <= 1.0 or (n <= 100_000 and n * got_d**1.5 <= 1.4):
            assert abs(got_p - float(res.pvalue)) <= 1e-12
        else:
            assert got_p == float(res.pvalue)


@pytest.mark.parametrize("n", [50, 9_999])
def test_ks_tail_refuses_samples_below_1e4(n):
    with pytest.raises(ValueError, match=f"at least 10\\^4, got n={n}$"):
        checks._ks_test(np.linspace(0.5 / n, 1.0 - 0.5 / n, n))


def test_ks_tail_where_scipys_durbin_matrix_overflows():
    # scipy 1.17's kstwo.sf overflows in its Durbin matrix at this D
    # (n D = 1.883) and returns 0; the tail is above 1 - 3e-15.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert checks._ks_sf(100_000, 1.883492068123413e-05) == 1.0


class TestScipyParity:
    """The suite's p-values against the scipy.stats oracle, at the suite's
    KS sample sizes of 10^4 and more: the statistics and the KS branches
    both sides take bit for bit; the chi-square, Gamma, one-sided KS and
    Pelz-Good tails computed in checks to within fixed bounds."""

    def test_chi_square_gof_matches_chi2_sf(self):
        rng = np.random.default_rng(139)
        for cells in (2, 3, 10, 60):
            expected = rng.uniform(5.0, 200.0, size=cells)
            observed = rng.poisson(expected).astype(float)
            stat, p = checks._chi_square_gof(observed, expected)
            assert p == pytest.approx(float(stats.chi2.sf(stat, cells - 1)), rel=1e-12, abs=0)

    def test_chi2_sf_matches_chdtrc(self):
        # Every dof of 1-500, out to 5 dof + 100 where the tail is tiny.
        for dof in range(1, 501):
            x = np.append(np.geomspace(1e-8, 5 * dof + 100, 12), np.linspace(0, 5 * dof + 100, 13)[1:])
            _assert_tails_close([checks._chi2_sf(dof, t) for t in x.tolist()], chdtrc(dof, x), 1e-12)
        assert checks._chi2_sf(3, 0.0) == 1.0

    def test_contingency_matches_chi2_contingency(self):
        rng = np.random.default_rng(149)
        tables = [rng.poisson(rng.uniform(1.0, 40.0), size=shape).astype(float)
                  for shape in ((2, 2), (2, 7), (3, 5), (6, 4), (2, 40))]
        for table in tables:
            want = stats.chi2_contingency(table, correction=False).pvalue
            assert checks._contingency_p(table) == pytest.approx(float(want), rel=1e-12, abs=0)
        # An empty row and column are dropped before the test.
        padded = np.zeros((4, 6))
        padded[np.ix_([0, 1, 3], [0, 2, 3, 4, 5])] = tables[2]
        assert checks._contingency_p(padded) == checks._contingency_p(tables[2])
        # One nontrivial row: no degrees of freedom, scipy's p = 1.
        single = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 9.0]])
        assert checks._contingency_p(single) == 1.0
        assert stats.chi2_contingency(single[1:, [0, 2]], correction=False).pvalue == 1.0
        with pytest.raises(ValueError, match="No data"):
            checks._contingency_p(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="No data"):
            stats.chi2_contingency(np.zeros((0, 0)), correction=False)

    @pytest.mark.parametrize("n", [10_000])
    def test_ks_matches_kstest_across_branch_cuts(self, n):
        targets = [cut(n) * side for cut in KS_CUTS for side in (1 - 1e-9, 1.0, 1 + 1e-9)]
        _assert_ks_matches_kstest(n, [d for d in targets if 0.0 < d < 1.0])

    def test_ks_matches_kstest_at_1e5(self):
        # A few points only: scipy's smirnov costs about 0.2 s a call here.
        n = 100_000
        durbin, pelz_good = (1.4 / n) ** (2 / 3), math.sqrt(2.2 / n)
        _assert_ks_matches_kstest(n, [1 / n * 1.01, durbin * (1 - 1e-9), durbin * (1 + 1e-9),
                                      pelz_good * (1 - 1e-9)])

    @pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 2.5, 3.5, 10.0, 37.2, 150.0])
    def test_gamma_cdf_matches_gammainc(self, a):
        # Both sides of the switch at x = a + 1, and P(a, 0) = 0.
        x = np.append(np.random.default_rng(157).gamma(a, size=100_000), [0.0, a + 1.0])
        got = checks._gamma_cdf(a, x)
        assert np.abs(got - gammainc(a, x)).max() <= 2e-13
        assert got[-2] == 0.0

    @pytest.mark.parametrize("n", [141, 1000, 10_000, 100_000])
    def test_smirnov_matches_scipy(self, n):
        # n D^2 in [2.2, 370), where _ks_sf takes it, and D >= 0.5 short
        # of n D = n - 1, where scipy's kstwo does.  scipy's smirnov takes about
        # 0.15 s a call at n = 10^5, so that size gets fewer points.
        count = 3 if n == 100_000 else 12
        d = np.append(np.sqrt(np.linspace(2.2, 370.0, count, endpoint=False) / n),
                      np.linspace(0.5, 1.0, count, endpoint=False))
        d = d[n * d < n - 1]
        _assert_tails_close([checks._smirnov(n, t) for t in d.tolist()], smirnov(n, d), 1e-9)

    def test_smirnov_where_the_last_base_rounds_below_zero(self):
        # n = 1000, d = 1 - 563/1000: the last 1 - d - j/n is -5.6e-17.
        d = 1 - 563 / 1000
        assert checks._smirnov(1000, d) == pytest.approx(float(smirnov(1000, d)), rel=1e-9, abs=0)

    def test_gamma_ks_matches_kstest_on_the_gamma_law(self):
        rng = np.random.default_rng(151)
        draws = checks.gamma_sample(2.5, 1.3, rng, size=20_000)
        d, p = checks._ks_test(gammainc(2.5, np.sort(draws) / 1.3))
        want = stats.kstest(draws, stats.gamma(a=2.5, scale=1.3).cdf)
        assert (d, p) == (float(want.statistic), float(want.pvalue))


QUICK_REPORT_NAMES = (
    "change-of-variables-ratio",
    "jacobian-finite-difference-ratio",
    "determinant-lemma-ratio",
    "change-of-variables-alr",
    "jacobian-finite-difference-alr",
    "determinant-lemma-alr",
    "transform-round-trips",
    "transform-ks-ratio-alpha1-1",
    "transform-ks-alr-alpha2-3",
    "conditional-multinomial-n2-m2",
    "conditional-multinomial-n3-m3",
    "conditional-multinomial-scale-invariance",
    "pi-independence-r1-1-theta1",
    "pi-independence-r3-2-theta0.5",
    "pi-independence-negative-control",
    "dm-integral-n3-m2",
    "dm-integral-n2-m5",
    "beta-binomial-merge-n3-m4",
    "beta-binomial-merge-n3-m7",
    "beta-binomial-merge-n2-m6",
    "nb-mixture-chisq-R2-theta1",
    "nb-mixture-chisq-R1-theta0.5",
    "nb-mixture-chisq-R3.5-theta0.8",
    "nb-mixture-chisq-R0.7-theta2",
    "nb-mixture-chisq-R5-theta0.3",
    "gamma-common-scale-sum-ks-r1.3+2.2-theta0.7",
    "poisson-superposition-chisq-1.5+2.5",
    "multinomial-normalization",
    "dirichlet-multinomial-normalization",
    "dirichlet-multinomial-symmetry",
    "negative-binomial-normalization",
    "normalized-nb-mass-r1-1-theta1",
    "normalized-nb-mass-r2.5-1.5-1-theta0.7",
    "normalized-nb-mass-r0.8-1.7-theta2",
    "normalized-nb-value-partition",
    "alr-density-normalization-quadrature",
)


def test_suite_table_names_every_report_before_it_runs():
    # The names come from the rows alone; no check is called.
    quick = [row[0] for row in checks._suite("quick")]
    full = [row[0] for row in checks._suite("full")]
    assert len(set(quick)) == len(quick)
    assert quick == full
    assert tuple(quick) == QUICK_REPORT_NAMES


class TestRunAll:
    def test_quick_deterministic_and_green(self):
        first = run_all(424242, "quick")
        second = run_all(424242, "quick")
        assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]
        assert tuple(r.name for r in first) == QUICK_REPORT_NAMES
        assert all_passed(first)
        # JSON-lines serialization round-trips.
        for rep in first:
            line = json.dumps(rep.to_json_dict())
            assert json.loads(line)["name"] == rep.name

    def test_every_verdict_agrees_with_its_threshold(self):
        rules = {"p-value": 0, "negative control": 0, "bound": 0}
        for r in run_all(0, "quick"):
            if r.name == "pi-independence-negative-control":
                rules["negative control"] += 1
                assert r.passed == (r.statistic < r.threshold)
            elif "p-value must exceed threshold" in r.detail:
                rules["p-value"] += 1
                assert r.passed == (r.statistic > r.threshold), r.name
            elif not r.inconclusive:
                rules["bound"] += 1
                assert r.passed == (r.statistic <= r.threshold), r.name
        assert rules == {"p-value": 14, "negative control": 1, "bound": 21}

    def test_different_seeds_differ(self):
        a = run_all(1, "quick")
        b = run_all(2, "quick")
        assert [r.statistic for r in a] != [r.statistic for r in b]

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            run_all(0, "paranoid")

    def test_only_a_failing_statistical_row_is_retried(self, monkeypatch):
        # Fake rows: (name, check, (passed, inconclusive), statistical,
        # trials); a statistical row that fails on its first run is rerun
        # once, at 10x the trials, on the stage-1 substream.  Exact and
        # inconclusive rows are not rerun.
        calls = []

        def check(name, passed, inconclusive, trials, rng, seed):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
            calls.append((name, trials, seed))
            return CheckReport(name, 0.5, 0.001, passed and trials > 100, trials, seed,
                               inconclusive, f"{trials} trials")

        rows = [
            ("statistical", check, (True, False), True, 100),
            ("exact", check, (False, False), False, 100),
            ("inconclusive", check, (False, True), True, 100),
            ("passes", check, (True, False), True, 1000),
        ]
        monkeypatch.setattr(checks, "_suite", lambda level: rows)
        reports = run_all(7, "quick")
        seed = [checks._child_seed(7, i) for i in range(4)]
        retry_seed = checks._child_seed(7, 0, stage=1)
        assert calls == [("statistical", 100, seed[0]), ("statistical", 1000, retry_seed),
                         ("exact", 100, seed[1]), ("inconclusive", 100, seed[2]),
                         ("passes", 1000, seed[3])]
        assert [(r.passed, r.size, r.seed, r.detail) for r in reports] == [
            (True, 1000, retry_seed, "1000 trials; retried at 10x samples"),
            (False, 100, seed[1], "100 trials"),
            (False, 100, seed[2], "100 trials"),
            (True, 1000, seed[3], "1000 trials"),
        ]


    def test_a_raising_row_is_reported_and_the_rest_run(self, monkeypatch):
        # A row that raises, on its first run or on its retry, becomes a
        # failed report naming the exception, with the seed and size of the
        # run that raised; the rows after it still run.
        def check(name, outcome, trials, rng, seed):
            if outcome == "raise" or (outcome == "raise on retry" and trials > 100):
                raise ValueError(f"{name} broke")
            return CheckReport(name, 0.5, 0.001, outcome == "pass", trials, seed)

        rows = [
            ("raises", check, ("raise",), False, 100),
            ("retry raises", check, ("raise on retry",), True, 100),
            ("passes", check, ("pass",), True, 100),
        ]
        monkeypatch.setattr(checks, "_suite", lambda level: rows)
        reports = run_all(7, "quick")
        seed = [checks._child_seed(7, i) for i in range(3)]
        retry_seed = checks._child_seed(7, 1, stage=1)
        assert [(r.name, r.passed, r.inconclusive, r.size, r.seed, r.detail) for r in reports] == [
            ("raises", False, False, 100, seed[0], "raised ValueError: raises broke"),
            ("retry raises", False, False, 1000, retry_seed,
             "raised ValueError: retry raises broke; retried at 10x samples"),
            ("passes", True, False, 100, seed[2], ""),
        ]
        assert all(math.isnan(r.statistic) and math.isnan(r.threshold) for r in reports[:2])
        assert not all_passed(reports)

    def test_running_out_of_memory_is_not_a_failed_row(self, monkeypatch, capsys):
        # A MemoryError stops the suite, and verify reports it as the CLI
        # reports running out of memory in any job.
        def check(name, trials, rng, seed):
            raise MemoryError

        monkeypatch.setattr(checks, "_suite", lambda level: [("allocates", check, (), False, 100)])
        with pytest.raises(MemoryError):
            run_all(7, "quick")
        assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error: out of memory: this verify job")


def test_a_raising_check_does_not_hide_the_others(monkeypatch, capsys):
    # Ratio points mapped back to compositions whose sum is off by 1e-9
    # make three rows raise RowError.  verify still prints all 36 rows;
    # the other 33 are those of an unbroken run.
    assert cli.main(["verify", "--level", "quick", "--seed", "0"]) == 0
    clean = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    from_ratios = simplex._from_ratios
    monkeypatch.setattr(simplex, "_from_ratios", lambda y, z: from_ratios(y, z) * (1.0 + 1e-9))
    assert cli.main(["verify", "--level", "quick", "--seed", "0"]) == cli.EXIT_DOMAIN
    broken = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["name"] for r in broken] == list(QUICK_REPORT_NAMES)
    # A raised row reports the trials its suite row passes as its size,
    # not the size its check reports when it runs.
    raised = {"change-of-variables-ratio": 1000, "jacobian-finite-difference-ratio": 100,
              "transform-round-trips": 100}
    for got, want in zip(broken, clean):
        if got["name"] in raised:
            assert not got["passed"] and math.isnan(got["statistic"])
            assert got["detail"].startswith("raised RowError: Composition entries sum to 1.0000000")
            assert got["seed"] == want["seed"]
            assert got["size"] == raised[got["name"]] != want["size"]
        else:
            assert got == want


# Each row perturbs one library function, as seen from inside
# countcomp.checks, by 1e-6: above every tolerance involved (1e-12 for
# the pointwise and round-trip checks, 1e-10 for DM normalization, the
# Beta-Binomial merge and the determinant lemma, 1e-9 for the
# normalized-NB mass and the value partition).  The finite-difference
# check allows a relative determinant error of 1e-6, so its closed-form
# log-det is shifted by 1e-5.  The check that relies on it must fail, so
# the acceptance criteria that call these checks cannot pass vacuously,
# and the suite-level verdict must catch it.
# A function is perturbed in both its forms, the scalar entry point and
# its batch form ``<name>_rows``, so the row follows its check to
# whichever form the check calls.
def _shift_log(fn):
    return lambda *args: fn(*args) + 1e-6


def _shift_log_det(fn):
    def shifted(y):
        x, log_det = fn(y)
        return x, log_det + 1e-5

    return shifted


def _scale(fn):
    return lambda *args: fn(*args) * (1.0 + 1e-6)


def _shift_value_log_masses(fn):
    def shifted(*args):
        log_mass, bound = fn(*args)
        return log_mass + 1e-6, bound

    return shifted


def _shift_alr_point(fn):
    def shifted(y):
        if isinstance(y, LogRatioVector):
            return fn(LogRatioVector(y.entries + 1e-6))
        return fn(np.asarray(y) + 1e-6)

    return shifted


@pytest.mark.parametrize(
    "target,perturb,run",
    [
        ("inverted_dirichlet_log_pdf", _shift_log,
         lambda rng: checks._transform_pointwise("ratio", "ratio", 20, rng, 0)),
        ("alr_dirichlet_log_pdf", _shift_log,
         lambda rng: checks._transform_pointwise("alr", "alr", 20, rng, 0)),
        ("dirichlet_multinomial_log_pmf", _shift_log,
         lambda rng: checks._check_dm_normalization("dm", 3, 2, rng, 0)),
        ("normalized_nb_log_pmf", _shift_log,
         lambda rng: checks._check_normalized_nb_mass("mass", (1.0, 1.0), 1.0, 0, None, -1)),
        ("log_ratio_inverse", _shift_alr_point,
         lambda rng: checks._check_round_trips("round-trips", 5, rng, 0)),
        ("ratio_inverse", _shift_log_det,
         lambda rng: checks._check_jacobian_fd("ratio", "ratio", 20, rng, 0)),
        ("log_ratio_inverse", _shift_log_det,
         lambda rng: checks._check_jacobian_fd("alr", "alr", 20, rng, 0)),
        ("beta_binomial_log_pmf", _shift_log,
         lambda rng: _check_beta_binomial_merge("merge", (2.0, 1.5, 1.5), 7, 0, None, 0)),
        ("_value_pmf_rows", _shift_value_log_masses,
         lambda rng: checks._check_value_pmf_partition("partition", 0, None, -1)),
        ("_lemma_det", _scale,
         lambda rng: checks._check_lemma_substitution("ratio", "ratio", 20, rng, 0)),
        ("_lemma_det", _scale,
         lambda rng: checks._check_lemma_substitution("alr", "alr", 20, rng, 0)),
    ],
)
def test_perturbed_library_function_fails_its_check(monkeypatch, target, perturb, run):
    rng = np.random.default_rng(113)
    assert run(rng).passed  # the unperturbed check passes
    for name in (target, f"{target}_rows"):
        if hasattr(checks, name):
            monkeypatch.setattr(checks, name, perturb(getattr(checks, name)))
    rep = run(rng)
    assert not rep.passed and not rep.inconclusive
    assert rep.statistic > rep.threshold
    assert not all_passed([rep])


class TestAllPassed:
    def test_inconclusive_does_not_fail_suite(self):
        ok = CheckReport("a", 0.5, 0.001, True, 10, 0)
        undecided = CheckReport("b", 3.0, 30.0, False, 10, 0, inconclusive=True)
        failed = CheckReport("c", 0.0, 0.001, False, 10, 0)
        assert all_passed([ok, undecided])
        assert not all_passed([ok, undecided, failed])


class TestLemmaDet:
    def test_lemma_substitution(self):
        assert _lemma_det(np.array([2.0, 2.0]), np.ones(2), np.ones(2)) == pytest.approx(8.0)

    def test_zero_update(self):
        diag = np.array([3.0, -1.5, 0.25])
        expected = 3.0 * -1.5 * 0.25
        got = _lemma_det(diag, np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert got == pytest.approx(expected, rel=1e-15)

    def test_random_4x4_against_lu(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 2.0, size=4)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        dense = np.linalg.det(np.diag(d) + np.outer(u, v))
        assert _lemma_det(d, u, v) == pytest.approx(dense, rel=1e-12)

    def test_many_random_against_lu(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            d = rng.uniform(0.2, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            dense = np.linalg.det(np.diag(d) + np.outer(u, v))
            assert _lemma_det(d, u, v) == pytest.approx(dense, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_stack_equals_each_row_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        d = rng.uniform(0.2, 3.0, size=(4, 50, dim)) * rng.choice([-1.0, 1.0], size=(4, 50, dim))
        u = rng.normal(size=d.shape)
        v = rng.normal(size=d.shape)
        got = _lemma_det(d, u, v)
        assert got.shape == (4, 50)
        for index in np.ndindex(4, 50):
            one = _lemma_det(d[index], u[index], v[index])
            assert one == got[index]
            # The lemma as written with ``@`` on one vector.
            assert one == (1.0 + v[index] @ (u[index] / d[index])) * np.prod(d[index])
