"""Statistical tests of the samplers against analytic laws.

Fixed seeds throughout; thresholds are loose enough (p > 0.001, a few
standard errors) that these are stable, not flaky.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from countcomp import (
    Composition,
    CountVector,
    DirichletParams,
    dirichlet_sample,
    gamma_sample,
    multinomial_log_pmf,
    multinomial_sample,
    negative_binomial_log_pmf,
    negative_binomial_sample_via_mixture,
    poisson_sample,
)
from countcomp.checks import _chi_square_gof, _composition_matrix
from countcomp.distributions import _gamma_std, _poisson, _poisson_inversion
from countcomp.simplex import RowError, composition_rows

N = 100_000


def test_samplers_are_deterministic_given_seed():
    def draw_all(seed):
        rng = np.random.default_rng(seed)
        return (
            [gamma_sample(2.0, 1.0, rng) for _ in range(10)],
            [poisson_sample(4.0, rng) for _ in range(10)],
            [negative_binomial_sample_via_mixture(2.0, 1.0, rng) for _ in range(10)],
            dirichlet_sample(DirichletParams([2.0, 3.0, 5.0]), rng).entries.tolist(),
            multinomial_sample(9, Composition([0.2, 0.3, 0.5]), rng).counts.tolist(),
        )

    assert draw_all(123) == draw_all(123)
    assert draw_all(123) != draw_all(124)


def _value(draw):
    for field in ("entries", "counts"):
        draw = getattr(draw, field, draw)
    return draw


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, size: gamma_sample(0.5, 2.0, rng, size=size),
        lambda rng, size: gamma_sample(2.0, 1.0, rng, size=size),
        lambda rng, size: poisson_sample(4.0, rng, size=size),
        lambda rng, size: poisson_sample(45.0, rng, size=size),
        lambda rng, size: negative_binomial_sample_via_mixture(2.0, 1.0, rng, size=size),
        lambda rng, size: dirichlet_sample(DirichletParams([0.5, 2.0, 3.0]), rng, size=size),
        lambda rng, size: multinomial_sample(9, Composition([0.2, 0.3, 0.5]), rng, size=size),
    ],
    ids=["gamma-boost", "gamma", "poisson-inversion", "poisson-ptrs", "nb", "dirichlet",
         "multinomial"],
)
def test_scalar_call_is_row_zero_of_size_one(draw):
    for seed in range(20):
        single, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        one = draw(single, None)
        rows = draw(batch, 1)
        assert np.asarray(_value(one)).tobytes() == rows[0].tobytes()
        assert single.bit_generator.state == batch.bit_generator.state


class TestGammaSampler:
    def test_shape_one_is_exponential(self):
        rng = np.random.default_rng(2)
        theta = 1.7
        draws = gamma_sample(1.0, theta, rng, size=N)
        _, p = stats.kstest(draws, stats.expon(scale=theta).cdf)
        assert p > 0.001

    def test_mean(self):
        rng = np.random.default_rng(3)
        r, theta = 3.2, 0.6
        draws = gamma_sample(r, theta, rng, size=N)
        se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - r * theta) < 3.0 * se

    def test_small_shape_boost_branch(self):
        rng = np.random.default_rng(5)
        draws = gamma_sample(0.5, 2.0, rng, size=N)
        _, p = stats.kstest(draws, stats.gamma(a=0.5, scale=2.0).cdf)
        assert p > 0.001

    def test_common_scale_summation(self):
        # Gamma(r1, t) + Gamma(r2, t) ~ Gamma(r1 + r2, t).
        rng = np.random.default_rng(7)
        r1, r2, theta = 1.3, 2.2, 0.7
        draws = gamma_sample(r1, theta, rng, size=N) + gamma_sample(r2, theta, rng, size=N)
        _, p = stats.kstest(draws, stats.gamma(a=r1 + r2, scale=theta).cdf)
        assert p > 0.001

    @pytest.mark.parametrize("shape", [0.3, 1.0, 2.5, 50.0])
    def test_batch_matches_scipy_cdf(self, shape):
        rng = np.random.default_rng(8)
        draws = gamma_sample(shape, 1.5, rng, size=N)
        assert draws.shape == (N,)
        _, p = stats.kstest(draws, stats.gamma(a=shape, scale=1.5).cdf)
        assert p > 0.001

    def test_domain(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            gamma_sample(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            gamma_sample(1.0, -1.0, rng)

    @pytest.mark.parametrize("shape, seed", [(10.0, 0), (0.5, 2)])
    def test_draws_past_the_largest_float_are_refused(self, shape, seed):
        # Every Gamma(10) draw, and the second Gamma(0.5) draw of seed 2,
        # times 1e308 is past 1.8e308; NB's mixing draw takes the same path.
        with pytest.raises(ValueError, match=rf"Gamma\(shape={shape}, scale=1e\+308\) draws overflow"):
            gamma_sample(shape, 1e308, np.random.default_rng(seed), size=3)
        with pytest.raises(ValueError, match="overflow float64"):
            negative_binomial_sample_via_mixture(1e300, 1e10, np.random.default_rng(seed), size=2)


    def test_a_draw_that_fits_is_kept_where_scale_times_std_overflows(self):
        # Below shape 1 a draw is scale * std * U^(1/shape), std a
        # Gamma(shape + 1) draw.  At seed 1, 1e308 * std overflows for the
        # second draw, which is 6.0e305 in the other order.
        draws = gamma_sample(0.5, 1e308, np.random.default_rng(1), size=3)
        rng = np.random.default_rng(1)
        boost = (1.0 - rng.random(3)) ** 2.0
        std = _gamma_std(1.5, 3, rng)
        assert draws[0] == 1e308 * std[0] * boost[0] and draws[2] == 1e308 * std[2] * boost[2]
        assert draws[1] == 1e308 * (std[1] * boost[1])
        assert draws.tolist() == pytest.approx([5.94e306, 6.0e305, 1.26e308], rel=3e-3)


def _reference_inversion(rate, uniforms):
    # One sequential CDF search per uniform, as a single draw runs it.
    cap = 200 + int(20.0 * rate)
    draws = []
    for u in uniforms:
        k, p = 0, math.exp(-rate)
        cum = p
        while u > cum and k < cap:
            k += 1
            p *= rate / k
            cum += p
        draws.append(k)
    return draws


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns chosen uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms)

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms


# The CDF of rates 4.0, 17.3 and 29.0 tops out below 1 - 2**-53, so the
# largest uniforms take the cap there.  p underflows to 0 before the cap
# at every rate, from k = 2 at 1e-300.
CAPPED_RATES = (4.0, 17.3, 29.0)


@pytest.mark.parametrize("rate", [1e-300, 0.01, 0.5, 2.5, *CAPPED_RATES, 30.0])
def test_one_rate_batch_equals_the_sequential_search(rate):
    cap = 200 + int(20.0 * rate)
    edges = [0.0, 1e-300, math.exp(-rate), math.nextafter(math.exp(-rate), 1.0), 0.5,
             1.0 - 2.0**-52, 1.0 - 2.0**-53]
    u = np.concatenate([edges, np.random.default_rng(5).random(10_000)])
    draws = _poisson_inversion(np.full(u.size, rate), _FixedUniforms(u))
    assert draws.dtype == np.int64
    assert draws.tolist() == _reference_inversion(rate, u.tolist())
    assert (draws.max() == cap) == (rate in CAPPED_RATES)
    # Through the public sampler: the same uniforms, the same generator
    # state after it, and a single draw is its first row.
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    rows = poisson_sample(rate, rng, size=2000)
    assert rows.tolist() == _reference_inversion(rate, reference.random(2000).tolist())
    assert rng.bit_generator.state == reference.bit_generator.state
    assert poisson_sample(rate, np.random.default_rng(7)) == rows[0]


class TestPoissonSampler:
    def test_zero_probability_rate_one(self):
        rng = np.random.default_rng(11)
        draws = poisson_sample(1.0, rng, size=N)
        p_zero = (draws == 0).mean()
        se = math.sqrt(math.exp(-1.0) * (1.0 - math.exp(-1.0)) / N)
        assert abs(p_zero - math.exp(-1.0)) < 3.0 * se

    def test_mean_and_variance_rate_four(self):
        rng = np.random.default_rng(13)
        draws = poisson_sample(4.0, rng, size=N)
        mean_se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - 4.0) < 3.0 * mean_se
        # Var of the sample variance of a Poisson: (mu + 2 mu^2) / N, roughly.
        var_se = math.sqrt((4.0 + 2.0 * 16.0) / N)
        assert abs(draws.var(ddof=1) - 4.0) < 3.0 * var_se

    def test_superposition(self):
        # Sum at rates (a, b) matches a single draw at a + b.
        rng = np.random.default_rng(17)
        a, b = 1.5, 2.5
        summed = poisson_sample(a, rng, size=N) + poisson_sample(b, rng, size=N)
        direct = poisson_sample(a + b, rng, size=N)
        top = int(max(summed.max(), direct.max()))
        table = np.stack(
            [np.bincount(summed, minlength=top + 1), np.bincount(direct, minlength=top + 1)]
        )
        keep = table.sum(axis=0) >= 10
        pooled = np.concatenate(
            [table[:, keep], table[:, ~keep].sum(axis=1, keepdims=True)], axis=1
        )
        _, p, _, _ = stats.chi2_contingency(pooled, correction=False)
        assert p > 0.001

    def test_large_rate_rejection_branch(self):
        rng = np.random.default_rng(19)
        rate = 45.0
        draws = poisson_sample(rate, rng, size=N)
        top = int(draws.max())
        observed = np.bincount(draws, minlength=top + 2).astype(float)
        pmf = stats.poisson(rate).pmf(np.arange(top + 1))
        expected = N * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
        _, p = _chi_square_gof(observed, expected)
        assert p > 0.001

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, 2.0**62])
    def test_domain(self, rate):
        # Draws at rates from 2**62 up would overflow int64.
        with pytest.raises(ValueError):
            poisson_sample(rate, np.random.default_rng(1))

    def test_one_batch_of_mixed_rates(self):
        # Rates on both sides of the inversion/rejection split at 30,
        # interleaved in one batch; each rate's draws follow its law.
        rates = np.array([0.5, 4.0, 29.5, 30.5, 400.0])
        per_rate = 20_000
        batch = np.tile(rates, per_rate)
        draws = _poisson(batch, np.random.default_rng(21))
        assert draws.dtype == np.int64 and draws.shape == batch.shape
        for rate in rates:
            got = draws[batch == rate]
            top = int(got.max())
            observed = np.bincount(got, minlength=top + 2).astype(float)
            pmf = stats.poisson(rate).pmf(np.arange(top + 1))
            expected = per_rate * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
            _, p = _chi_square_gof(observed, expected)
            assert p > 0.001, rate

    @pytest.mark.parametrize("high", [25.0, 1000.0])
    def test_each_draw_lands_on_its_own_entry(self, high):
        # Rates alternating 0.01 and 25 are all drawn by inversion; with
        # 1000 the two branches share the call.  A draw moved to another
        # entry takes the other rate's law: far from 0, or near it.
        rates = np.tile([0.01, high], 16)
        draws = _poisson(rates, np.random.default_rng(23))
        assert (draws[0::2] == 0).all(), draws
        wide = 5.0 * math.sqrt(high)
        assert (np.abs(draws[1::2] - high) <= wide).all(), draws

    def test_inversion_batch_equals_successive_single_draws(self):
        # Below 30 a draw takes one uniform and the same CDF search, so a
        # batch reproduces the stream of one-draw calls exactly.
        for rate in (0.5, 4.0, 30.0):
            rng = np.random.default_rng(22)
            singles = [poisson_sample(rate, rng) for _ in range(500)]
            rows = poisson_sample(rate, np.random.default_rng(22), size=500)
            assert rows.tolist() == singles


class TestNegativeBinomialMixture:
    def test_matches_closed_form_pmf(self):
        rng = np.random.default_rng(23)
        big_r, theta = 2.0, 1.0
        p_succ = theta / (1.0 + theta)
        draws = negative_binomial_sample_via_mixture(big_r, theta, rng, size=N)
        top = int(draws.max())
        observed = np.bincount(draws, minlength=top + 2).astype(float)
        pmf = np.exp([negative_binomial_log_pmf(big_r, p_succ, m) for m in range(top + 1)])
        expected = N * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
        _, p = _chi_square_gof(observed, expected)
        assert p > 0.001

    def test_mean_and_overdispersed_variance(self):
        rng = np.random.default_rng(29)
        big_r, theta = 2.0, 1.0
        draws = negative_binomial_sample_via_mixture(big_r, theta, rng, size=N)
        mean_se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - big_r * theta) < 3.0 * mean_se
        target_var = big_r * theta * (1.0 + theta)
        fourth = ((draws - draws.mean()) ** 4).mean()
        var_se = math.sqrt(max(fourth - target_var**2, 0.0) / N)
        assert abs(draws.var(ddof=1) - target_var) < 4.0 * var_se


class TestMultinomialSampler:
    def test_zero_trials(self):
        rng = np.random.default_rng(31)
        x = multinomial_sample(0, Composition([0.3, 0.7]), rng)
        assert x.counts.tolist() == [0, 0]

    def test_nearly_degenerate(self):
        rng = np.random.default_rng(37)
        x = multinomial_sample(1000, Composition([1.0 - 1e-12, 1e-12]), rng)
        assert x.counts[0] == 1000

    def test_total_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = multinomial_sample(17, Composition([0.1, 0.2, 0.3, 0.4]), rng)
            assert x.total == 17

    def test_size_gives_checked_rows_of_one_batch(self):
        probs = Composition([0.1, 0.2, 0.3, 0.4])
        rows = multinomial_sample(25, probs, np.random.default_rng(44), size=300)
        assert rows.shape == (300, 4) and rows.dtype == np.int64 and not rows.flags.writeable
        assert (rows >= 0).all() and (rows.sum(axis=1) == 25).all()
        again = multinomial_sample(25, probs, np.random.default_rng(44), size=300)
        assert rows.tobytes() == again.tobytes()
        rng = np.random.default_rng(44)
        assert multinomial_sample(25, probs, rng, size=0).shape == (0, 4)

    def test_matches_pmf(self):
        rng = np.random.default_rng(43)
        m, probs = 5, Composition([0.2, 0.3, 0.5])
        cells = [CountVector(row) for row in _composition_matrix(3, m)]
        index = {tuple(c.counts.tolist()): i for i, c in enumerate(cells)}
        observed = np.zeros(len(cells))
        for row in multinomial_sample(m, probs, rng, size=N).tolist():
            observed[index[tuple(row)]] += 1
        expected = N * np.exp([multinomial_log_pmf(m, probs, c) for c in cells])
        _, p = _chi_square_gof(observed, expected)
        assert p > 0.001


class TestDirichletSampler:
    def test_uniform_marginal_ks(self):
        rng = np.random.default_rng(47)
        params = DirichletParams([1.0, 1.0])
        draws = dirichlet_sample(params, rng, size=N)[:, 0]
        _, p = stats.kstest(draws, stats.uniform.cdf)
        assert p > 0.001

    def test_symmetric_mean(self):
        rng = np.random.default_rng(53)
        params = DirichletParams([5.0, 5.0])
        draws = dirichlet_sample(params, rng, size=N)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(N)
        assert abs(draws.mean() - 0.5) < 3.0 * se

    def test_mean_vector(self):
        rng = np.random.default_rng(59)
        params = DirichletParams([2.0, 3.0, 5.0])
        draws = dirichlet_sample(params, rng, size=N)
        target = np.array([0.2, 0.3, 0.5])
        se = draws.std(axis=0, ddof=1) / math.sqrt(N)
        assert np.all(np.abs(draws.mean(axis=0) - target) < 3.0 * se)

    def test_size_gives_checked_rows_of_one_batch(self):
        # One Gamma batch per column, each row normalized and checked.
        params = DirichletParams([0.5, 1.0, 2.0, 3.0, 0.7, 1.1, 2.2, 0.9, 4.0, 1.5])
        rows = dirichlet_sample(params, np.random.default_rng(60), size=300)
        rng = np.random.default_rng(60)
        gammas = np.column_stack([gamma_sample(a, 1.0, rng, size=300) for a in params.alpha])
        assert rows.shape == (300, 10) and not rows.flags.writeable
        want = composition_rows(gammas / gammas.sum(axis=1, keepdims=True))
        assert rows.tobytes() == want.tobytes()

    def test_size_checks_every_row_and_names_the_first_bad_one(self):
        # Gamma(0.01) draws underflow, so some rows are not compositions.
        params = DirichletParams([0.01, 0.01, 0.01])
        with pytest.raises(RowError) as info:
            dirichlet_sample(params, np.random.default_rng(3), size=5000)
        rng = np.random.default_rng(3)
        gammas = np.column_stack([gamma_sample(0.01, 1.0, rng, size=5000) for _ in range(3)])
        with np.errstate(invalid="ignore"):
            x = gammas / gammas.sum(axis=1, keepdims=True)
        first_bad = int(np.flatnonzero(~(x >= sys.float_info.min).all(axis=1))[0])
        assert info.value.row == first_bad

    def test_all_zero_row_is_a_floor_error_without_warnings(self):
        # At seed 9 both Gamma(1e-3) draws of the first row underflow to 0:
        # the floor error of any sub-normal row, not a 0/0.
        params = DirichletParams([1e-3, 1e-3])
        rng = np.random.default_rng(9)
        assert [gamma_sample(1e-3, 1.0, rng) for _ in range(2)] == [0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="normal floats"):
                dirichlet_sample(params, np.random.default_rng(9))
            with pytest.raises(RowError, match="normal floats") as info:
                dirichlet_sample(params, np.random.default_rng(9), size=200)
        assert info.value.row == 0

    def test_returns_valid_composition(self):
        rng = np.random.default_rng(61)
        comp = dirichlet_sample(DirichletParams([0.5, 1.0, 2.0]), rng)
        assert comp.entries.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(comp.entries > 0)
