"""Power of the verification suite: one table of mutations.

Each row breaks one private helper of the library and names the
quick-level rows of ``verify`` that must then fail at seed 0, so each
named row is shown to guard that helper.  A helper is replaced wherever
a countcomp module binds it, so a module that imported it by name sees
the mutation too.  Rows marked xfail are known gaps: mutations that
every row of the suite passes today.
"""

import copy

import pytest

from countcomp import _rules, checks, cli, distributions, run_all, simplex, special

MODULES = (_rules, special, simplex, distributions, checks, cli)


def _shift(fn):
    """A log-domain result off by 1e-9."""
    return lambda *args: fn(*args) + 1e-9


def _shift_each(fn):
    """Each array of a list of log values off by 1e-9."""
    return lambda *args: [values + 1e-9 for values in fn(*args)]


def _reversed_alpha(fn):
    """The concentrations taken in reverse order: at n = 2, Dir(2, 3)'s
    density becomes Dir(3, 2)'s.  alpha holds one value or column per
    component."""
    return lambda log_b, alpha, total, y, log_k: fn(log_b, alpha[::-1], total, y, log_k)


def _copied_stream(fn):
    """Draws from a copy of the caller's generator, which is left where
    it was: successive Gamma batches repeat their variates."""
    return lambda shape, size, rng: fn(shape, size, copy.deepcopy(rng))


def _shift_from_three(fn):
    """log B(alpha) off by 0.1 for n >= 3: a 10 % mass error in the
    Dirichlet, inverted-Dirichlet and log-ratio densities."""
    return lambda lgs, fsum, alpha: fn(lgs, fsum, alpha) + (0.1 if len(alpha) >= 3 else 0.0)


def _swapped_shapes(fn):
    """Each pair (k, m) gets the mass of (m - k, m): the law of 1 - X_c / S."""
    return lambda lgs, a, b, p, k, m: fn(lgs, b, a, p, k, m)


def _reversed_draws(fn):
    """The draws returned in reverse entry order: at per-entry rates, an
    entry takes the draw of another entry's rate."""
    return lambda rate, rng: fn(rate, rng)[::-1]


_NORMALIZATION_ONLY_AT_N2 = (
    "every row that reads log B at n >= 3 compares two densities that share it; "
    "the one absolute normalization row integrates n = 2 only")
_PAIRS_SHARE_THEIR_FORMULA = (
    "normalization is blind to the swap, and the value-partition row compares two "
    "sums of the same pair masses")
_DRAW_ORDER_UNSEEN = (
    "the rows that draw at per-entry rates test laws that any permutation of the "
    "draws keeps, and a batch at one rate cannot show it")

TABLE = [
    pytest.param(distributions, "_nb_log_terms", _shift,
                 ["negative-binomial-normalization", "normalized-nb-mass-r1-1-theta1",
                  "normalized-nb-mass-r2.5-1.5-1-theta0.7", "normalized-nb-mass-r0.8-1.7-theta2"],
                 id="nb-mass-shifted"),
    pytest.param(distributions, "_multinomial_log_terms", _shift, ["multinomial-normalization"],
                 id="multinomial-mass-shifted"),
    pytest.param(distributions, "_dm_log_terms", _shift,
                 ["beta-binomial-merge-n3-m4", "beta-binomial-merge-n3-m7",
                  "beta-binomial-merge-n2-m6", "dirichlet-multinomial-normalization"],
                 id="dm-mass-shifted"),
    pytest.param(special, "_log_gamma_each", _shift_each,
                 ["beta-binomial-merge-n3-m4", "multinomial-normalization",
                  "dirichlet-multinomial-normalization", "negative-binomial-normalization",
                  "normalized-nb-mass-r1-1-theta1"],
                 id="batch-log-gamma-shifted"),
    pytest.param(special, "_log_gamma_map", _shift_each,
                 ["beta-binomial-merge-n3-m4", "beta-binomial-merge-n3-m7",
                  "beta-binomial-merge-n2-m6"],
                 id="one-point-log-gamma-shifted"),
    pytest.param(distributions, "_dirichlet_log_terms", _shift,
                 ["change-of-variables-ratio", "change-of-variables-alr"],
                 id="dirichlet-density-shifted"),
    pytest.param(simplex, "_ratio_log_det", _shift, ["change-of-variables-ratio"],
                 id="ratio-log-det-shifted"),
    pytest.param(simplex, "_log_ratio_log_det", _shift, ["change-of-variables-alr"],
                 id="log-ratio-log-det-shifted"),
    pytest.param(distributions, "_alr_dirichlet_log_terms", _reversed_alpha,
                 ["change-of-variables-alr", "transform-ks-alr-alpha2-3"],
                 id="log-ratio-density-reversed-alpha"),
    pytest.param(distributions, "_gamma_std", _copied_stream,
                 ["transform-ks-ratio-alpha1-1", "transform-ks-alr-alpha2-3",
                  "pi-independence-r3-2-theta0.5", "pi-independence-negative-control",
                  "dm-integral-n3-m2", "dm-integral-n2-m5",
                  "gamma-common-scale-sum-ks-r1.3+2.2-theta0.7"],
                 id="gamma-draws-reuse-the-stream"),
    pytest.param(special, "_log_multivariate_beta_terms", _shift_from_three,
                 ["alr-density-normalization-quadrature"], id="dirichlet-normalizer-from-n3",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason=_NORMALIZATION_ONLY_AT_N2)),
    pytest.param(distributions, "_pair_log_terms", _swapped_shapes,
                 ["normalized-nb-mass-r0.8-1.7-theta2"], id="pair-mass-swapped-shapes",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason=_PAIRS_SHARE_THEIR_FORMULA)),
    pytest.param(distributions, "_poisson_inversion", _reversed_draws,
                 ["pi-independence-r3-2-theta0.5"], id="poisson-draws-reversed",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                         reason=_DRAW_ORDER_UNSEEN)),
]


@pytest.mark.parametrize("module,helper,mutate,must_fail", TABLE)
def test_mutation_fails_the_rows_that_guard_it(monkeypatch, module, helper, mutate, must_fail):
    assert set(must_fail) <= {row[0] for row in checks._suite("quick")}
    original = getattr(module, helper)
    mutant = mutate(original)
    bound = [(mod, name) for mod in MODULES for name, value in vars(mod).items()
             if value is original]
    for mod, name in bound:
        monkeypatch.setattr(mod, name, mutant)
    failed = {r.name for r in run_all(0, "quick") if not r.passed and not r.inconclusive}
    missed = sorted(set(must_fail) - failed)
    assert not missed, f"{module.__name__}.{helper} mutated, yet these rows pass: {missed}"


def test_the_table_reaches_the_statistical_rows():
    # At least one mutation that the table expects to be caught (no
    # xfail) fails a KS row of the push-forwards, and one an
    # independence row.
    caught = {name for row in TABLE if not row.marks for name in row.values[3]}
    assert any(name.startswith("transform-ks-") for name in caught)
    assert any(name.startswith("pi-independence-") for name in caught)
