"""Tests for the verification harness itself."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import betainc

from countcomp import (
    CheckReport,
    GammaMixtureParams,
    adaptive_simpson,
    all_passed,
    check_beta_binomial_merge,
    check_conditional_multinomial,
    check_dm_integral,
    check_pi_independent_of_s,
    check_transform_density,
    enumerate_compositions,
    run_all,
)
from countcomp import checks
from countcomp.simplex import LogRatioVector


class TestEnumerateCompositions:
    def test_n2_m2(self):
        got = {tuple(c.counts.tolist()) for c in enumerate_compositions(2, 2)}
        assert got == {(0, 2), (1, 1), (2, 0)}

    def test_counts_match_binomial_oracle(self):
        for n, m in ((2, 2), (3, 2), (4, 10), (5, 6), (1, 4)):
            items = [tuple(c.counts.tolist()) for c in enumerate_compositions(n, m)]
            assert len(items) == math.comb(m + n - 1, n - 1)
            assert len(set(items)) == len(items)  # each exactly once
            assert all(sum(item) == m for item in items)
            # dm-symmetry indexes into this order, so pin it: lexicographic.
            brute = [p for p in itertools.product(range(m + 1), repeat=n) if sum(p) == m]
            assert items == brute

    def test_n4_m10_is_286(self):
        assert sum(1 for _ in enumerate_compositions(4, 10)) == 286

    def test_m_zero(self):
        assert [c.counts.tolist() for c in enumerate_compositions(3, 0)] == [[0, 0, 0]]

    def test_errors(self):
        with pytest.raises(ValueError):
            list(enumerate_compositions(0, 3))
        with pytest.raises(ValueError):
            list(enumerate_compositions(2, -1))


class TestAdaptiveSimpson:
    def test_beta_integral(self):
        val = adaptive_simpson(lambda t: t**1.5 * (1.0 - t) ** 2.5, 0.0, 1.0, tol=1e-12)
        assert val == pytest.approx(0.03681553890925537, abs=1e-11)

    def test_sine(self):
        assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_empty_interval_is_zero(self):
        assert adaptive_simpson(math.exp, 0.7, 0.7) == 0.0

    def test_reversed_interval_negates(self):
        forward = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        assert adaptive_simpson(math.exp, 1.0, 0.0, tol=1e-12) == pytest.approx(-forward, abs=1e-14)
        assert forward == pytest.approx(math.e - 1.0, abs=1e-11)

    @pytest.mark.parametrize("max_depth", [5, 48])
    def test_endpoint_singularity_stops_at_depth_cap(self, max_depth):
        # t^-1/2 never meets the tolerance next to 0, so refinement ends
        # at the depth cap: at most 3 + 2 (2^(depth+1) - 1) evaluations.
        evals = []

        def f(t):
            evals.append(t)
            return t**-0.5

        val = adaptive_simpson(f, 1e-15, 1.0, max_depth=max_depth)
        assert math.isfinite(val)
        assert len(evals) <= 3 + 2 * (2 ** (max_depth + 1) - 1)
        if max_depth == 48:
            assert val == pytest.approx(2.0, abs=1e-6)


class TestConditionalMultinomial:
    def test_passes_on_reference_settings(self):
        rng = np.random.default_rng(67)
        rep = check_conditional_multinomial((1.0, 1.0), 2, 30_000, rng, seed=67)
        assert rep.passed and not rep.inconclusive
        rep = check_conditional_multinomial((2.0, 1.0, 1.0), 3, 30_000, rng, seed=67)
        assert rep.passed and not rep.inconclusive

    def test_inconclusive_when_starved(self):
        rng = np.random.default_rng(71)
        rep = check_conditional_multinomial((1.0, 1.0), 2, 40, rng, seed=71)
        assert rep.inconclusive
        assert not rep.passed


class TestPiIndependence:
    def test_independence_not_rejected(self):
        rng = np.random.default_rng(73)
        params = GammaMixtureParams((1.0, 1.0), 1.0)
        rep = check_pi_independent_of_s(params, 30_000, rng, seed=73)
        assert rep.passed

    def test_negative_control_is_rejected(self):
        rng = np.random.default_rng(79)
        params = GammaMixtureParams((1.0, 1.0), 1.0)
        rep = check_pi_independent_of_s(params, 10_000, rng, seed=79, negative_control=True)
        assert rep.passed  # i.e. the test DID reject the constructed dependence
        assert rep.statistic < 0.001

    def test_requires_two_components(self):
        rng = np.random.default_rng(83)
        with pytest.raises(ValueError):
            check_pi_independent_of_s(GammaMixtureParams((1.0, 1.0, 1.0), 1.0), 100, rng)

    @pytest.mark.parametrize("negative_control", [False, True])
    def test_requires_a_trial(self, negative_control):
        rng = np.random.default_rng(83)
        with pytest.raises(ValueError, match="trials >= 1"):
            check_pi_independent_of_s(GammaMixtureParams((1.0, 1.0), 1.0), 0, rng,
                                      negative_control=negative_control)


class TestDmIntegral:
    def test_uniform_case(self):
        rng = np.random.default_rng(89)
        rep = check_dm_integral((1.0, 1.0, 1.0), 2, 30_000, rng, seed=89)
        assert rep.passed

    def test_asymmetric_case(self):
        rng = np.random.default_rng(97)
        rep = check_dm_integral((2.0, 1.0), 5, 30_000, rng, seed=97)
        assert rep.passed

    @pytest.mark.parametrize("trials", [0, 1])
    def test_standard_error_needs_two_trials(self, trials):
        # One draw or none has no standard error: a ValueError, not a
        # failed report with a NaN statistic.
        rng = np.random.default_rng(97)
        with pytest.raises(ValueError, match="trials >= 2"):
            check_dm_integral((2.0, 1.0), 5, trials, rng)


class TestBetaBinomialMerge:
    @pytest.mark.parametrize(
        "r,m",
        [((1.0, 1.0, 1.0), 4), ((2.0, 1.5, 1.5), 7), ((1.5, 2.5), 6), ((0.5, 1.0, 2.0, 0.7), 5)],
    )
    def test_exact_merge(self, r, m):
        rep = check_beta_binomial_merge(r, m, seed=0)
        assert rep.passed
        assert rep.statistic <= 1e-10

    def test_corrupted_tolerance_fails(self):
        # Negative control: an impossible tolerance must produce a failure,
        # and the suite-level verdict must catch it.
        rep = check_beta_binomial_merge((2.0, 1.5, 1.5), 7, seed=0, tol=0.0)
        assert not rep.passed and not rep.inconclusive
        assert not all_passed([rep])


class TestTransformDensity:
    def test_pointwise_both_transforms(self):
        rng = np.random.default_rng(101)
        for transform in ("ratio", "alr"):
            rep = check_transform_density(
                (), 5, 300, rng, seed=101, transform=transform, variant="pointwise"
            )
            assert rep.passed
            assert rep.statistic <= 1e-12

    def test_ks_both_transforms(self):
        rng = np.random.default_rng(103)
        rep = check_transform_density(
            (1.0, 1.0), 2, 20_000, rng, seed=103, transform="ratio", variant="ks"
        )
        assert rep.passed
        rep = check_transform_density(
            (2.0, 3.0), 2, 20_000, rng, seed=103, transform="alr", variant="ks"
        )
        assert rep.passed

    def test_pointwise_alpha_must_have_n_entries(self):
        # A fixed alpha of the wrong length must not be swapped for random
        # concentrations; only an empty alpha asks for those.
        rng = np.random.default_rng(109)
        with pytest.raises(ValueError, match="alpha"):
            check_transform_density((1.0, 2.0, 3.0), 5, 10, rng, variant="pointwise")

    @pytest.mark.parametrize("alpha", [(1.0, 2.0, 3.0), ()])
    @pytest.mark.parametrize("transform", ["ratio", "alr"])
    def test_pointwise_requires_a_trial(self, alpha, transform):
        # Zero points is no test: a ValueError, not a pass over nothing.
        rng = np.random.default_rng(107)
        with pytest.raises(ValueError, match="trials >= 1"):
            check_transform_density(alpha, 3, 0, rng, transform=transform, variant="pointwise")

    def test_ks_requires_n2(self):
        rng = np.random.default_rng(107)
        with pytest.raises(ValueError):
            check_transform_density((1.0, 1.0, 1.0), 3, 100, rng, variant="ks")

    def test_ks_requires_fixed_alpha_and_a_trial(self):
        rng = np.random.default_rng(107)
        with pytest.raises(ValueError, match="fixed alpha of 2 entries"):
            check_transform_density((), 2, 100, rng, variant="ks")
        for transform in ("ratio", "alr"):
            with pytest.raises(ValueError, match="trials >= 1"):
                check_transform_density((1.0, 1.0), 2, 0, rng, transform=transform, variant="ks")

    @pytest.mark.parametrize("transform", ["ratio", "alr"])
    @pytest.mark.parametrize("alpha", [(1.0, 1.0), (2.0, 3.0), (3.5, 0.7), (1.2, 40.0)])
    def test_ks_cdf_matches_incomplete_beta(self, alpha, transform):
        # In the bounded coordinate t both n = 2 push-forwards are the
        # first Dirichlet component, so their CDF is Beta(a1, a2)'s.
        knots = np.sort(np.random.default_rng(127).beta(*alpha, size=1000))
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
        rep = check_transform_density(alpha, 2, 10_000, rng, transform=transform, variant="ks")
        assert not rep.passed and not rep.inconclusive
        assert rep.statistic < checks.P_FLOOR


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

    def test_different_seeds_differ(self):
        a = run_all(1, "quick")
        b = run_all(2, "quick")
        assert [r.statistic for r in a] != [r.statistic for r in b]

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            run_all(0, "paranoid")


# Each row perturbs one library function, as seen from inside
# countcomp.checks, by 1e-6: above every tolerance involved (1e-12 for
# the pointwise and round-trip checks, 1e-10 for DM normalization, 1e-9
# for the normalized-NB mass).  The finite-difference check allows a
# relative determinant error of 1e-6, so its closed-form log-det is
# shifted by 1e-5.  The check that relies on it must fail, so the
# acceptance criteria that call these checks cannot pass vacuously.
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
         lambda rng: checks._transform_pointwise("ratio", 20, rng, 0)),
        ("alr_dirichlet_log_pdf", _shift_log,
         lambda rng: checks._transform_pointwise("alr", 20, rng, 0)),
        ("dirichlet_multinomial_log_pmf", _shift_log,
         lambda rng: checks._check_dm_normalization(3, 2, rng, 0)),
        ("normalized_nb_log_pmf", _shift_log,
         lambda rng: checks._check_normalized_nb_mass((1.0, 1.0), 1.0)),
        ("log_ratio_inverse", _shift_alr_point,
         lambda rng: checks._check_round_trips(5, rng, 0)),
        ("ratio_inverse", _shift_log_det,
         lambda rng: checks._check_jacobian_fd("ratio", 20, rng, 0)),
        ("log_ratio_inverse", _shift_log_det,
         lambda rng: checks._check_jacobian_fd("alr", 20, rng, 0)),
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


class TestAllPassed:
    def test_inconclusive_does_not_fail_suite(self):
        ok = CheckReport("a", 0.5, 0.001, True, 10, 0)
        undecided = CheckReport("b", 3.0, 30.0, False, 10, 0, inconclusive=True)
        failed = CheckReport("c", 0.0, 0.001, False, 10, 0)
        assert all_passed([ok, undecided])
        assert not all_passed([ok, undecided, failed])
