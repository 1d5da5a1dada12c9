"""Verification harness: independent oracles for every derived identity.

Each check pits an implementation against a route that does not share
its arithmetic: closed-form densities against pulled-back densities plus
Jacobians, closed-form Jacobians against central differences and LU
determinants, samplers against analytic laws via chi-square and
Kolmogorov-Smirnov tests, integrals against Monte Carlo, and infinite
sums against truncated enumeration with explicit tail bounds.

Every verdict comes from one of two rules, each with its own report
builder: a p-value must exceed the floor of 0.001 (``_p_value_report``)
or an error must stay within a fixed bound (``_error_report``).  Only
the negative control (its p-value must fall below the floor) and a
check too starved of data to decide report otherwise.  The floor keeps
the false-failure probability of the whole suite under ~5% per run; a
failing statistical check is retried once at 10x the sample size (on a
fresh substream) before being declared failed.  Chi-square cells with
expected count below 5 are pooled into a tail cell.

P-values follow ``scipy.stats`` (``chi2.sf``, ``chi2_contingency``,
``kstest``) but take their tails from finite forms computed here: the
chi-square tail for integer degrees of freedom (``_chi2_sf``), the Gamma
CDF (``_gamma_cdf``) and the one-sided KS tail (``_smirnov``).  They
agree with ``scipy.special`` to within 1e-12 relative, 2e-13 absolute
and 1e-9 relative respectively, not bit for bit.  The two-sided KS tail
(``_ks_sf``) is defined on the suite's own sample sizes, 10^4 and more.
scipy is the oracle of the tests and the benchmark only; this module
never imports it.

``run_all`` executes the whole suite deterministically: every check
draws from its own substream derived from the master seed, and reports
come back in a fixed order, so two runs with the same seed produce
byte-identical reports.  Each report's name is fixed in its row of the
suite table (``_suite``) at both levels, and known before the check runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._rules import _as_count, _reject_rows
from .distributions import (
    BetaBinomialParams,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    _log_multinomial_coefficient,
    _poisson,
    _value_pmf_rows,
    alr_dirichlet_log_pdf_rows,
    beta_binomial_log_pmf,
    dirichlet_log_pdf_rows,
    dirichlet_multinomial_log_pmf,
    dirichlet_multinomial_log_pmf_rows,
    dirichlet_sample,
    gamma_sample,
    inverted_dirichlet_log_pdf_rows,
    multinomial_log_pmf_rows,
    nb_truncation_bound,
    negative_binomial_log_pmf_rows,
    negative_binomial_sample_via_mixture,
    normalized_nb_log_pmf,
    normalized_nb_log_pmf_rows,
    poisson_sample,
)
from .simplex import (
    Composition,
    _log_ratios,
    _ratios,
    composition_rows,
    log_ratio_inverse_rows,
    log_ratio_rows,
    ratio_inverse_rows,
    ratio_rows,
)
from .special import _log_each, _log_gamma_distinct, log_sum_exp, log_sum_exp_rows

__all__ = ["CheckReport", "run_all", "all_passed"]

P_FLOOR = 0.001
_MIN_EXPECTED = 5.0
_FD_STEP = 1e-6

# Constants of the Pelz-Good expansion, computed as scipy.stats._ksstats does.
_PI_SQUARED, _PI_FOUR, _PI_SIX = np.pi ** 2, np.pi ** 4, np.pi ** 6
_SQRT2PI, _SQRT3 = np.sqrt(2 * np.pi), np.sqrt(3)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``statistic`` is compared against ``threshold`` in the direction the
    check defines (p-values must exceed it, errors must stay below);
    ``passed`` records the verdict.  ``inconclusive`` flags checks that
    could not gather enough data to decide and should not be counted as
    failures.  ``size`` is the sample size or enumeration bound and
    ``seed`` the substream seed that reproduces the check.
    """

    name: str
    statistic: float
    threshold: float
    passed: bool
    size: int
    seed: int
    inconclusive: bool = False
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": str(self.name),
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
            "size": int(self.size),
            "seed": int(self.seed),
            "detail": str(self.detail),
        }


def _p_value_report(name: str, p, size: int, seed: int, note: str = "") -> CheckReport:
    """A report under the p-value rule: ``p`` must exceed ``P_FLOOR``."""
    rule = "p-value must exceed threshold"
    return CheckReport(
        name=name, statistic=p, threshold=P_FLOOR, passed=p > P_FLOOR,
        size=size, seed=seed, detail=f"{note}; {rule}" if note else rule,
    )


def _error_report(name: str, error, tol: float, size: int, seed: int, detail: str) -> CheckReport:
    """A report under the bound rule: ``error`` must stay within ``tol``."""
    return CheckReport(
        name=name, statistic=error, threshold=tol, passed=error <= tol,
        size=size, seed=seed, detail=detail,
    )


def all_passed(reports) -> bool:
    """True when no check failed (inconclusive reports do not fail)."""
    return all(r.passed or r.inconclusive for r in reports)


# ---------------------------------------------------------------------------
# Elementary oracles
# ---------------------------------------------------------------------------


def _composition_matrix(n: int, m: int) -> np.ndarray:
    """Every non-negative integer vector of length n >= 1 summing to m,
    exactly once, as the rows of an int64 ``(C(m+n-1, n-1), n)`` matrix
    in lexicographic order.

    Stars and bars: the n-1 bar positions among m+n-1 slots, taken in
    lexicographic order, leave gaps between them that are the counts.
    """
    rows = math.comb(m + n - 1, n - 1)
    # Each row's edges: a bar before the first slot, the n-1 bars, and
    # one after the last.  Filled in place: np.pad and np.diff cost several
    # times as much on the suite's small matrices.
    edges = np.empty((rows, n + 1), dtype=np.int64)
    edges[:, 0], edges[:, n] = -1, m + n - 1
    edges[:, 1:n] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + n - 1), n - 1)),
        dtype=np.int64, count=rows * (n - 1),
    ).reshape(rows, n - 1)
    counts = edges[:, 1:] - edges[:, :-1]
    counts -= 1
    return counts


def _simpson_rows(f, knots, tol: float) -> np.ndarray:
    """Simpson quadrature of ``f`` over each gap between consecutive
    ascending ``knots`` with one Richardson step, as an array of one
    value per gap; ``f`` maps an array of points to an array of values.

    Simpson's rule is taken on each gap and on its two halves, from five
    nodes per gap, and the halves' sum is corrected by a fifteenth of its
    difference from the whole.  Neighbouring gaps share their knot, so
    ``f`` is called twice: on the N+1 knots and the N midpoints, then on
    the 2N quarter points.  The difference of the two estimates bounds
    the error: where it passes 15 ``tol`` on any gap, a ValueError
    names it.
    """
    x = np.asarray(knots, dtype=float)
    a, b = x[:-1], x[1:]
    mid = 0.5 * (a + b)
    fx, fm = np.split(f(np.concatenate([x, mid])), [x.size])
    fa, fb = fx[:-1], fx[1:]
    flm, frm = np.split(f(np.concatenate([0.5 * (a + mid), 0.5 * (mid + b)])), 2)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    worst = float(np.abs(delta).max(initial=0.0))
    if not worst <= 15.0 * tol:  # NaN fails too
        raise ValueError(f"Simpson's rule moves by {worst!r} on halving an interval, "
                         f"more than 15 * {tol!r}")
    return left + right + delta / 15.0


def _chi_square_gof(observed: np.ndarray, expected: np.ndarray) -> tuple[float, float]:
    """Goodness-of-fit chi-square with small-expectation cells pooled
    into a tail cell.  Returns (statistic, p-value)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected >= _MIN_EXPECTED
    obs = list(observed[keep])
    exp = list(expected[keep])
    pooled_obs = float(observed[~keep].sum())
    pooled_exp = float(expected[~keep].sum())
    if pooled_exp > 0.0:
        if pooled_exp >= _MIN_EXPECTED or not exp:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
        else:
            obs[-1] += pooled_obs
            exp[-1] += pooled_exp
    obs_arr = np.asarray(obs)
    exp_arr = np.asarray(exp)
    if exp_arr.size < 2:
        raise ValueError("chi-square needs at least two cells after pooling")
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = exp_arr.size - 1
    return statistic, _chi2_sf(dof, statistic)


def _contingency_p(table: np.ndarray) -> float:
    """Chi-square independence p-value, dropping empty rows/columns: the
    arithmetic of ``scipy.stats.chi2_contingency(table, correction=False)``."""
    table = np.asarray(table, dtype=float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.size == 0:
        raise ValueError("No data; the contingency table has no nonzero entry")
    dof = table.size - sum(table.shape) + 1
    if dof == 0:
        # One nontrivial row or column: observed equals expected.
        return 1.0
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    return _chi2_sf(dof, float(((table - expected) ** 2 / expected).sum()))


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi^2_dof >= x) for an integer dof >= 1: the upper incomplete gamma
    Q(dof/2, x/2) as a finite sum.  With y = x/2 it is e^-y sum_{j < dof/2}
    y^j / j! for even dof, and erfc(sqrt(y)) plus the half-integer terms
    e^-y y^(j+1/2) / Gamma(j+3/2) for odd dof; each term is taken in logs."""
    y = 0.5 * x
    if y <= 0.0:
        return 1.0
    half, log_y = 0.5 * (dof % 2), math.log(y)
    terms = [math.exp((j + half) * log_y - math.lgamma(j + half + 1.0) - y)
             for j in range(dof // 2)]
    return math.fsum(terms + [math.erfc(math.sqrt(y))] if half else terms)


def _gamma_cdf(a: float, x: np.ndarray) -> np.ndarray:
    """The regularized lower incomplete gamma P(a, x) over an array of
    x >= 0: its power series below x = a + 1, and above it 1 - Q(a, x) with
    Q by the continued fraction of Legendre, evaluated by Lentz's method."""
    with np.errstate(divide="ignore"):  # x = 0: log 0, and P(a, 0) = 0
        front = np.exp(a * np.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    low = x < a + 1.0
    xs, out = x[low], np.empty_like(x)
    term = np.full(xs.shape, 1.0 / a)
    total, n = term.copy(), 0
    while (term > total * 1e-17).any():  # sum_n x^n / (a (a+1) ... (a+n))
        n += 1
        term = term * xs / (a + n)
        total += term
    out[low] = front[low] * total
    xs = x[~low]
    b = xs + 1.0 - a
    c, d = np.full(xs.shape, np.inf), 1.0 / b
    h, step, n = d.copy(), np.zeros(xs.shape), 0
    while (np.abs(step - 1.0) > 1e-15).any():
        n += 1
        b = b + 2.0
        d = 1.0 / (b - n * (n - a) * d)
        c = b - n * (n - a) / c
        step = c * d
        h *= step
    out[~low] = 1.0 - front[~low] * h
    return out


def _ks_test(cdf: np.ndarray) -> tuple[float, float]:
    """Two-sided one-sample KS statistic D, as ``scipy.stats.kstest`` takes
    it, and its p-value by ``_ks_sf``, from the sorted CDF values of a
    sample of at least 10^4 under the null law."""
    n = cdf.size
    d = max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max())
    return float(d), float(np.clip(_ks_sf(n, d), 0.0, 1.0))


def _ks_sf(n: int, d):
    """P(D_n >= d) for n >= 10^4, the suite's smallest KS sample, by the
    large-sample branches of Simard and L'Ecuyer (2011).  Pelz-Good stands
    in for scipy's exact branches (n d <= 1, the Durbin-matrix region) to
    within 1e-12 absolute; scipy's d >= 0.5 branches underflow to the 0
    of the first cut."""
    if n < 10_000:
        raise ValueError(f"the KS tail is defined for samples of at least 10^4, got n={n}")
    t = n * d
    nd_squared = t * d
    if nd_squared >= 370.0:
        return 0.0
    if nd_squared >= 2.2:
        return 2 * _smirnov(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def _smirnov(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided KS tail, by the finite sum of Birnbaum
    and Tingey (1951): d sum_{0 <= j <= n (1 - d)} C(n, j) (1 - d - j/n)^(n-j)
    (d + j/n)^(j-1), each term taken in logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    with np.errstate(divide="ignore"):  # the last 1 - d - j/n may be 0, or round below it
        log_terms = (log_factorial[n] - log_factorial[j] - log_factorial[n - j]
                     + (n - j) * np.log(np.maximum((n - j) / n - d, 0.0))
                     + (j - 1) * np.log(d + j / n))
    return d * float(np.exp(log_terms).sum())  # positive terms, so a pairwise sum is accurate


def _pelz_good_cdf(n: int, d):
    """P(D_n <= d) by the Pelz-Good (1976) expansion for small n d^2: a
    port of ``scipy.stats._ksstats._kolmogn_PelzGood`` that keeps its order
    of operations, so the result is bit-identical."""
    z = np.sqrt(n) * d
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k1a, k1b = -zsquared, _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8
    # Horner scheme in q^8 for the sums over odd integers m = 2k - 1.
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m2 = (2 * k - 1) ** 2
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m2**2,
                           k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3])
    terms *= q
    terms *= _SQRT2PI
    terms /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])
    # The sums over all integers k in K_2 and K_3.
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z, kspi = _SQRT3 * z, np.pi * ks
    qpowers = q**ksquared
    terms[2] += np.sum(ksquared * qpowers) * (_PI_SQUARED * _SQRT2PI / (-36 * zthree))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpowers)
                 * (_PI_SQUARED * _SQRT2PI / (216 * zsix)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)


def _mixed_rel_err(got, want):
    """|got - want| / max(1, |want|), for floats or entry by entry."""
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


def _check_conditional_multinomial(name: str, rates, m: int, trials: int, rng: np.random.Generator,
                                   seed: int) -> CheckReport:
    """Condition independent Poisson draws on their total hitting m and
    chi-square the kept vectors against Multinomial(m, rates/sum(rates)).

    Exactly ``trials`` Poisson vectors are drawn, one batch per rate.
    Fewer than 10 accepted vectors per outcome cell makes the check
    inconclusive rather than failed.
    """
    note = f"rates ({', '.join(f'{r:g}' for r in rates)}), m={m}"
    rates = np.asarray(rates, dtype=float)
    n = rates.size
    cells = _composition_matrix(n, m)
    probs = Composition(rates / rates.sum())
    cell_logp = multinomial_log_pmf_rows(m, probs, cells)
    draws = np.column_stack([poisson_sample(r, rng, size=trials) for r in rates])
    kept = draws[draws.sum(axis=1) == m]
    accepted = len(kept)
    # The cells hold every vector that sums to m, so unique rows over
    # cells and kept vectors are the cells, and each kept vector's
    # inverse index is its cell's.
    _, inverse = np.unique(np.concatenate([cells, kept]), axis=0, return_inverse=True)
    observed = np.bincount(inverse[len(cells):], minlength=len(cells))[inverse[:len(cells)]]
    if accepted < 10 * len(cells):
        return CheckReport(
            name=name, statistic=float(accepted), threshold=float(10 * len(cells)),
            passed=False, size=trials, seed=seed, inconclusive=True,
            detail=f"{note}: too few accepted samples to test",
        )
    expected = accepted * np.exp(cell_logp)
    _, p = _chi_square_gof(observed, expected)
    return _p_value_report(name, p, accepted, seed, note)


def _check_pi_independent_of_s(name: str, params: GammaMixtureParams, negative_control: bool,
                               trials: int, rng: np.random.Generator, seed: int) -> CheckReport:
    """Test independence of the normalized intensity pi_1 and the count
    total S on simulated pairs (n = 2): pi_1 binned into deciles, S into
    {0, 1, 2, >=3}, chi-square on the contingency table.

    With ``negative_control`` set the totals are replaced by a
    deterministic function of pi_1; the check then passes only if the
    test rejects, guarding against a vacuous independence test.
    """
    r1, r2 = params.shapes
    theta = params.scale
    lam1 = gamma_sample(r1, theta, rng, size=trials)
    lam_total = lam1 + gamma_sample(r2, theta, rng, size=trials)
    pi = lam1 / lam_total
    totals = _poisson(lam_total, rng)
    if negative_control:
        totals = np.minimum(3, (4.0 * pi).astype(np.int64))
    pi_bin = np.searchsorted(_decile_edges(pi), pi)
    s_bin = np.minimum(totals, 3)
    table = np.zeros((10, 4))
    np.add.at(table, (pi_bin, s_bin), 1.0)
    p = _contingency_p(table)
    if negative_control:
        return CheckReport(
            name=name, statistic=p, threshold=P_FLOOR, passed=p < P_FLOOR,
            size=trials, seed=seed,
            detail="constructed dependence: p-value must FALL BELOW threshold",
        )
    return _p_value_report(name, p, trials, seed)


def _decile_edges(values: np.ndarray) -> np.ndarray:
    """The nine inner deciles of a sample, ``np.quantile(values,
    np.linspace(0.1, 0.9, 9))`` bit for bit: numpy's default (linear)
    method written out, from the order statistics around the virtual
    index (n - 1) q and the two-sided interpolation of numpy's ``_lerp``.
    ``np.quantile`` dedupes those indices with ``np.unique``, which
    imports ``numpy.ma`` on its first call."""
    ordered = np.sort(values)
    index = (ordered.size - 1) * np.linspace(0.1, 0.9, 9)
    below = np.floor(index)
    t, i = index - below, below.astype(np.intp)
    lo, hi = ordered[i], ordered[i + 1]
    step = hi - lo
    return np.where(t >= 0.5, hi - step * (1.0 - t), lo + step * t)


def _check_dm_integral(name: str, shapes, m: int, trials: int, rng: np.random.Generator,
                       seed: int) -> CheckReport:
    """Monte-Carlo the Multinomial-over-Dirichlet integral and compare it
    cell by cell against the closed-form Dirichlet-Multinomial mass.

    The estimate averages the multinomial mass at each enumerated count
    vector over Dirichlet draws of the category probabilities; each cell
    must agree within 4 standard errors.
    """
    n = len(shapes)
    draws = dirichlet_sample(DirichletParams(shapes), rng, size=trials)
    cells = _composition_matrix(n, m)
    log_coef = _log_multinomial_coefficient(_log_gamma_distinct, m, cells.T)
    # (cells x trials) multinomial masses at each draw of pi.
    log_mass = log_coef[:, None] + cells.astype(float) @ np.log(draws).T
    mass = np.exp(log_mass)
    estimate = mass.mean(axis=1)
    stderr = mass.std(axis=1, ddof=1) / math.sqrt(trials)
    target = dirichlet_multinomial_log_pmf_rows(shapes, m, cells)
    z = np.abs(estimate - np.exp(target)) / np.maximum(stderr, 1e-300)
    return _error_report(name, float(z.max()), 4.0, trials, seed,
                         "max |z| across cells must stay below threshold")


def _check_beta_binomial_merge(name: str, r, m: int, trials: int, rng, seed: int) -> CheckReport:
    """Exact check that merging all but the first category of a
    Dirichlet-Multinomial yields the Beta-Binomial marginal: for every k,
    the summed DM mass over {x : x_1 = k} must match it.

    The identity is exact, so ``trials`` and ``rng`` are unused; they
    keep the calling convention ``run_all`` uses for every check."""
    r = np.asarray(r, dtype=float)
    n = r.size
    big_r = float(r.sum())
    bb = BetaBinomialParams(r[0], big_r - r[0], m)
    cells = _composition_matrix(n, m)
    log_mass = dirichlet_multinomial_log_pmf_rows(r, m, cells)
    worst = 0.0
    for k in range(m + 1):
        merged = log_sum_exp(log_mass[cells[:, 0] == k])
        worst = max(worst, float(_mixed_rel_err(merged, beta_binomial_log_pmf(bb, k))))
    return _error_report(name, worst, 1e-10, len(cells), seed, "max log-mass rel. error across k")


def _transform_pointwise(name: str, transform: str, trials_per_n: int, rng, seed) -> CheckReport:
    """Check, at ``trials_per_n`` random points and concentrations for
    each n = 2..6, that the closed-form push-forward density equals the
    Dirichlet density at the pulled-back point plus the closed-form
    log-Jacobian."""
    worst = 0.0
    for n in range(2, 7):
        a = rng.uniform(0.3, 5.0, size=(trials_per_n, n))
        if transform == "ratio":
            y = np.exp(rng.normal(0.0, 1.0, size=(trials_per_n, n - 1)))
            direct = inverted_dirichlet_log_pdf_rows(a, y)
            x, log_det = ratio_inverse_rows(y)
        else:
            y = rng.normal(0.0, 2.0, size=(trials_per_n, n - 1))
            direct = alr_dirichlet_log_pdf_rows(a, y)
            x, log_det = log_ratio_inverse_rows(y)
        pulled = dirichlet_log_pdf_rows(a, x) + log_det
        worst = max(worst, float(_mixed_rel_err(direct, pulled).max(initial=0.0)))
    return _error_report(name, worst, 1e-12, 5 * trials_per_n, seed,
                         f"max log-density rel. error over {trials_per_n} points per n=2..6")


def _transform_ks(name: str, transform: str, alpha, trials: int, rng, seed) -> CheckReport:
    """Transform ``trials`` Dir(alpha) samples (n = 2) and run a KS test
    against the push-forward CDF: Simpson quadrature, with one Richardson
    step, of the library's batch density (``inverted_dirichlet_log_pdf_rows``
    or ``alr_dirichlet_log_pdf_rows``) on a bounded reparameterization of
    the support, over every gap between the sorted samples at once."""
    params = DirichletParams(alpha)
    # The sampled rows are compositions already: map them without
    # checking (and renormalizing) them a second time.
    x = dirichlet_sample(params, rng, size=trials)
    if transform == "ratio":
        y = np.sort(ratio_rows(_ratios(x))[0][:, 0])
        knots = y / (1.0 + y)
    else:
        y = np.sort(log_ratio_rows(_log_ratios(x))[0][:, 0])
        knots = 1.0 / (1.0 + np.exp(-y))
    # Under the law, the CDF values at the sample are uniform on (0, 1).
    cdf = _push_forward_cdf(params.alpha, transform, knots)
    d, p = _ks_test(np.clip(np.sort(cdf), 0.0, 1.0))
    return _p_value_report(name, p, trials, seed, note=f"KS D={d:.6g}")


def _push_forward_cdf(alpha, transform: str, knots: np.ndarray) -> np.ndarray:
    """The CDF of the n = 2 ratio or log-ratio push-forward of Dir(alpha)
    at ascending knots in the bounded coordinate t = y / (1 + y) (ratio)
    or t = 1 / (1 + e^-y) (log ratio), by ``_simpson_rows`` of the
    library's batch density on every gap between the knots.

    In t both push-forwards are the first Dirichlet component, whose
    Beta(a1, a2) density is a polynomial of degree at most 3 at the
    suite's alphas, (1, 1) and (2, 3), so the rule is exact there up to
    rounding.  Elsewhere a gap on which its error estimate passes
    15 x 1e-12 raises a ValueError.
    """

    # The bounded reparameterizations pin the support to (0, 1); the
    # integrands are assembled in log domain and the endpoints nudged
    # 1e-15 inward, so boundary evaluations neither overflow nor hit
    # log(0).
    def density_t(t):
        t = np.clip(t, 1e-15, 1.0 - 1e-15)
        if transform == "ratio":  # y = t / (1 - t), dy = dt / (1 - t)^2
            log_density = inverted_dirichlet_log_pdf_rows(alpha, (t / (1.0 - t))[:, None])
            return np.exp(log_density - 2.0 * np.log1p(-t))
        log_t, log_s = np.log(t), np.log1p(-t)  # y = log(t / (1 - t)), dy = dt / (t (1 - t))
        return np.exp(alr_dirichlet_log_pdf_rows(alpha, (log_t - log_s)[:, None]) - log_t - log_s)

    gaps = _simpson_rows(density_t, np.append(0.0, knots), 1e-12)
    return np.cumsum(gaps)


# ---------------------------------------------------------------------------
# Suite-only checks (exact identities and normalizations)
# ---------------------------------------------------------------------------


def _fd_log_det_rows(inverse_rows, y: np.ndarray) -> np.ndarray:
    """log |det J| of an implemented inverse map at each row of an
    (N, n-1) float array ``y``, as an (N,) array: central differences of
    the first n-1 output coordinates of ``inverse_rows``
    (``ratio_inverse_rows`` or ``log_ratio_inverse_rows``) and one
    stacked LU determinant.  A RowError names the first row whose
    determinant is not positive.

    The step of 1e-6 balances truncation against round-off for the 1e-6
    relative tolerance of the comparison with the closed forms.
    """
    d = y.shape[-1]
    jac = np.empty(y.shape + (d,))
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = _FD_STEP
        hi, lo = inverse_rows(y + bump)[0][:, :-1], inverse_rows(y - bump)[0][:, :-1]
        jac[..., j] = (hi - lo) / (2.0 * _FD_STEP)
    sign, log_det = np.linalg.slogdet(jac)
    _reject_rows((sign <= 0.0, "finite-difference Jacobian has non-positive determinant"))
    return log_det


def _lemma_det(diag, u, v):
    """det(D + u v^T), D = diag(diag), of each stack of vectors (..., d),
    by the matrix determinant lemma: (1 + v^T D^-1 u) prod(diag)."""
    # vecdot takes each row's dot product as ``@`` does on one vector.
    return (1.0 + np.vecdot(v, u / diag)) * np.prod(diag, axis=-1)


def _check_jacobian_fd(name: str, transform: str, trials_per_n: int, rng, seed) -> CheckReport:
    if transform == "ratio":
        inverse_rows, low, high = ratio_inverse_rows, 0.1, 3.0
    else:
        inverse_rows, low, high = log_ratio_inverse_rows, -2.0, 2.0
    worst = 0.0
    for n in range(2, 7):
        y = rng.uniform(low, high, size=(trials_per_n, n - 1))
        gap = _fd_log_det_rows(inverse_rows, y) - inverse_rows(y)[1]
        # math.exp, not np.exp, which can differ from it in the last ulp.
        worst = max([worst] + [abs(math.exp(g) - 1.0) for g in gap.tolist()])
    return _error_report(name, worst, 1e-6, 5 * trials_per_n, seed,
                         "max determinant rel. error vs central differences, n=2..6")


def _check_lemma_substitution(name: str, transform: str, trials_per_n: int, rng,
                              seed) -> CheckReport:
    # Rebuild each Jacobian as diagonal + rank-one, take its determinant
    # through the matrix determinant lemma, and compare against both the
    # closed form and a dense LU determinant.  math.log and math.exp, not
    # np.log and np.exp, which can differ from them in the last ulp.
    worst = 0.0
    for n in range(2, 7):
        if transform == "ratio":
            y = rng.uniform(0.1, 3.0, size=(trials_per_n, n - 1))
            z = 1.0 + y.sum(axis=1)
            diag = np.repeat(1.0 / z[:, None], n - 1, axis=1)
            u = -y / (z * z)[:, None]
            v = np.ones_like(y)
            closed = -n * _log_each(z)
        else:
            y = rng.uniform(-2.0, 2.0, size=(trials_per_n, n - 1))
            w = np.exp(y)
            k = 1.0 + w.sum(axis=1)
            diag = w / k[:, None]
            u = -w / (k * k)[:, None]
            v = w
            closed = y.sum(axis=1) - n * _log_each(k)
        lemma = _lemma_det(diag, u, v)
        dense = np.linalg.det(diag[:, :, None] * np.eye(n - 1) + u[:, :, None] * v[:, None, :])
        exp_closed = np.fromiter(map(math.exp, closed.tolist()), float, closed.size)
        gaps = np.abs(np.concatenate([lemma / exp_closed, lemma / dense]) - 1.0)
        worst = max(worst, float(gaps.max(initial=0.0)))
    return _error_report(name, worst, 1e-10, 5 * trials_per_n, seed,
                         "lemma route vs closed form and LU determinant, n=2..6")


def _check_round_trips(name: str, trials_per_n: int, rng, seed) -> CheckReport:
    # The rows are compositions already: map them without checking (and
    # renormalizing) them a second time.
    worst = 0.0
    for n in range(2, 9):
        raw = rng.uniform(0.05, 1.0, size=(trials_per_n, n))
        x = composition_rows(raw / raw.sum(axis=1, keepdims=True))
        for back, _ in (ratio_inverse_rows(_ratios(x)), log_ratio_inverse_rows(_log_ratios(x))):
            worst = max(worst, float(np.abs(back / x - 1.0).max(initial=0.0)))
    return _error_report(name, worst, 1e-12, 7 * trials_per_n, seed,
                         "max componentwise rel. error, both transforms, n=2..8")


def _compositions_up_to(n: int, m_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compositions of every total m = 0..m_max in one matrix, in
    order of m; with the total of each row and the row index where each
    total after 0 begins."""
    blocks = [_composition_matrix(n, m) for m in range(m_max + 1)]
    sizes = [len(block) for block in blocks]
    return np.concatenate(blocks), np.repeat(np.arange(m_max + 1), sizes), np.cumsum(sizes)[:-1]


def _worst_log_total_mass(log_pmf_rows, low: float, high: float, m_max: int, trials,
                          rng) -> tuple[float, int]:
    """The largest |log total mass| over every m <= m_max and n = 2, 3, 4,
    at ``trials`` parameter vectors per n drawn uniform on [low, high),
    and the number of masses taken.  ``log_pmf_rows(draw, totals, cells)``
    gives the log mass of each cell at one draw."""
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        cells, totals, starts = _compositions_up_to(n, m_max)
        terms = np.stack([log_pmf_rows(rng.uniform(low, high, size=n), totals, cells)
                          for _ in range(trials)])
        # One log-sum-exp per total, over the rows of every draw at once.
        for per_m in np.split(terms, starts, axis=1):
            worst = max(worst, float(np.abs(log_sum_exp_rows(per_m)).max()))
        count += terms.size
    return worst, count


def _check_multinomial_normalization(name: str, m_max: int, trials, rng, seed) -> CheckReport:
    def log_pmf_rows(raw, totals, cells):
        return multinomial_log_pmf_rows(totals, Composition(raw / raw.sum()), cells)

    worst, count = _worst_log_total_mass(log_pmf_rows, 0.05, 1.0, m_max, trials, rng)
    detail = f"max |log total mass| over n<=4, m<={m_max}, {trials} random prob vectors"
    return _error_report(name, worst, 1e-10, count, seed, detail)


def _check_dm_normalization(name: str, m_max: int, trials, rng, seed) -> CheckReport:
    worst, count = _worst_log_total_mass(dirichlet_multinomial_log_pmf_rows, 0.2, 5.0, m_max,
                                         trials, rng)
    detail = f"max |log total mass| over n<=4, m<={m_max}, {trials} random shape vectors"
    return _error_report(name, worst, 1e-10, count, seed, detail)


def _check_dm_symmetry(name: str, trials, rng, seed) -> CheckReport:
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        shapes = rng.uniform(0.2, 5.0, size=n)
        m = int(rng.integers(0, 12))
        x = _composition_matrix(n, m)[int(rng.integers(0, math.comb(m + n - 1, n - 1)))]
        perm = rng.permutation(n)
        base = dirichlet_multinomial_log_pmf(shapes, m, CountVector(x))
        permuted = dirichlet_multinomial_log_pmf(shapes[perm], m, CountVector(x[perm]))
        worst = max(worst, abs(base - permuted))
    return _error_report(name, worst, 0.0, trials, seed,
                         "joint permutation of shapes and counts leaves the mass unchanged exactly")


def _check_nb_normalization(name: str, trials, rng, seed) -> CheckReport:
    worst = 0.0
    size = 0
    for big_r, p in ((2.5, 0.3), (1.0, 0.5), (4.0, 0.7), (1e15, 1e-15)):
        bound = nb_truncation_bound(big_r, p, 1e-14)
        terms = negative_binomial_log_pmf_rows(big_r, p, np.arange(bound + 1))
        worst = max(worst, abs(math.expm1(log_sum_exp(terms))))
        size = max(size, bound)
    return _error_report(name, worst, 1e-10, size, seed,
                         "|truncated total mass - 1| with tail below 1e-14")


def _check_normalized_nb_mass(name: str, shapes, theta, trials, rng, seed) -> CheckReport:
    params = GammaMixtureParams(shapes, theta)
    bound = nb_truncation_bound(params.total_shape, params.success_prob, 1e-12)
    total = math.exp(log_sum_exp(normalized_nb_log_pmf_rows(params, 0, *_pairs(0, bound))))
    return _error_report(name, abs(total - 1.0), 1e-9, bound, seed,
                         "pair masses for k<=m<=M must sum to 1 (NB tail below 1e-12)")


def _pairs(first: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (k, m) with first <= m <= bound and 0 <= k <= m, in
    order of m and then k, as two int arrays."""
    m = np.repeat(np.arange(first, bound + 1), np.arange(first + 1, bound + 2))
    k = np.concatenate([np.arange(j + 1) for j in range(first, bound + 1)])
    return k, m


def _check_value_pmf_partition(name: str, trials, rng, seed) -> CheckReport:
    # The value-aggregated masses over all reduced rationals seen below
    # the truncation bound, plus the m=0 atom, partition the pair space.
    params = GammaMixtureParams((1.0, 1.0), 1.0)
    bound = nb_truncation_bound(params.total_shape, params.success_prob, 1e-12)
    k, m = _pairs(1, bound)
    # The pairs in lowest terms are every reduced rational of denominator
    # at most the bound, each once: np.unique(..., axis=0) would also
    # import numpy.ma.  Sorted by value, as distinct values differ by at
    # least 1 / bound^2.
    reduced = np.gcd(k, m) == 1
    num, den = k[reduced], m[reduced]
    order = np.argsort(num / den)
    num, den = num[order], den[order]
    atom = normalized_nb_log_pmf(params, 0, 0, 0)
    pair_total = math.exp(log_sum_exp(np.append(normalized_nb_log_pmf_rows(params, 0, k, m), atom)))
    value_logs, _ = _value_pmf_rows(params, 0, num, den, 1e-12)
    value_total = math.exp(log_sum_exp(np.append(value_logs, atom)))
    return _error_report(name, abs(value_total - pair_total), 1e-9, len(num), seed,
                         "aggregated rational masses plus the m=0 atom equal the pair total")


def _check_alr_normalization_quadrature(name: str, trials, rng, seed) -> CheckReport:
    # Trapezoid on a wide uniform grid; the integrand decays like e^{-|y|}
    # so truncation at |y| = 40 contributes ~1e-17.
    grid = np.linspace(-40.0, 40.0, 32001)
    log_density = alr_dirichlet_log_pdf_rows((1.0, 1.0), grid[:, None])
    # math.exp, not np.exp, which can differ from it in the last ulp.
    vals = np.fromiter(map(math.exp, log_density.tolist()), float, grid.size)
    mass = float(np.trapezoid(vals, grid))
    return _error_report(name, abs(mass - 1.0), 1e-8, grid.size, seed,
                         "trapezoid mass of the alpha=(1,1) log-ratio density over [-40, 40]")


def _check_nb_mixture(name: str, big_r, theta, trials, rng, seed) -> CheckReport:
    params = GammaMixtureParams((big_r,), theta)
    p = params.success_prob
    draws = negative_binomial_sample_via_mixture(big_r, theta, rng, size=trials)
    top = int(draws.max())
    observed = np.bincount(draws, minlength=top + 2).astype(float)
    pmf = np.exp(negative_binomial_log_pmf_rows(big_r, p, np.arange(top + 1)))
    expected = trials * np.append(pmf, max(0.0, 1.0 - pmf.sum()))
    _, pval = _chi_square_gof(observed, expected)
    return _p_value_report(name, pval, trials, seed)


def _check_gamma_common_scale_sum(name: str, r1, r2, theta, trials, rng, seed) -> CheckReport:
    draws = gamma_sample(r1, theta, rng, size=trials) + gamma_sample(r2, theta, rng, size=trials)
    d, pval = _ks_test(_gamma_cdf(r1 + r2, np.sort(draws) / theta))
    return _p_value_report(name, pval, trials, seed, note=f"KS D={d:.6g}")


def _check_poisson_superposition(name: str, a, b, trials, rng, seed) -> CheckReport:
    summed = poisson_sample(a, rng, size=trials) + poisson_sample(b, rng, size=trials)
    direct = poisson_sample(a + b, rng, size=trials)
    top = int(max(summed.max(), direct.max()))
    table = np.stack(
        [np.bincount(summed, minlength=top + 1), np.bincount(direct, minlength=top + 1)]
    )
    # Pool sparse tail columns so expected counts stay reasonable.
    col_totals = table.sum(axis=0)
    keep = col_totals >= 2 * _MIN_EXPECTED
    pooled = table[:, keep]
    tail = table[:, ~keep].sum(axis=1, keepdims=True)
    if tail.sum() > 0:
        pooled = np.concatenate([pooled, tail], axis=1)
    pval = _contingency_p(pooled)
    return _p_value_report(name, pval, trials, seed)


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _child_seed(master: int, index: int, stage: int = 0) -> int:
    return int(np.random.SeedSequence((master, index, stage)).generate_state(1)[0])


def _suite(level: str) -> list[tuple]:
    # One row per check, in report order: (name, check, args, statistical,
    # trials).  run_all calls check(name, *args, trials, rng, seed).  Exact
    # checks read trials as draws per setting, or ignore it and rng.
    quick = level == "quick"
    big = 10_000 if quick else 100_000
    m_cap = 8 if quick else 12
    unit_rates = GammaMixtureParams((1.0, 1.0), 1.0)
    return [
        ("change-of-variables-ratio", _transform_pointwise, ("ratio",), False, 1000),
        ("jacobian-finite-difference-ratio", _check_jacobian_fd, ("ratio",), False, 100),
        ("determinant-lemma-ratio", _check_lemma_substitution, ("ratio",), False, 100),
        ("change-of-variables-alr", _transform_pointwise, ("alr",), False, 1000),
        ("jacobian-finite-difference-alr", _check_jacobian_fd, ("alr",), False, 100),
        ("determinant-lemma-alr", _check_lemma_substitution, ("alr",), False, 100),
        ("transform-round-trips", _check_round_trips, (), False, 100),
        ("transform-ks-ratio-alpha1-1", _transform_ks, ("ratio", (1.0, 1.0)), True, big),
        ("transform-ks-alr-alpha2-3", _transform_ks, ("alr", (2.0, 3.0)), True, big),
        ("conditional-multinomial-n2-m2",
         _check_conditional_multinomial, ((1.0, 1.0), 2), True, big),
        ("conditional-multinomial-n3-m3",
         _check_conditional_multinomial, ((2.0, 1.0, 1.0), 3), True, big),
        # Ten times the rates of n2-m2, and the same Multinomial(1/2, 1/2): the
        # conditional law depends on the rates only through their proportions.
        ("conditional-multinomial-scale-invariance",
         _check_conditional_multinomial, ((10.0, 10.0), 20), True, big),
        ("pi-independence-r1-1-theta1", _check_pi_independent_of_s, (unit_rates, False), True, big),
        ("pi-independence-r3-2-theta0.5",
         _check_pi_independent_of_s, (GammaMixtureParams((3.0, 2.0), 0.5), False), True, big),
        ("pi-independence-negative-control",
         _check_pi_independent_of_s, (unit_rates, True), False, 10_000),
        ("dm-integral-n3-m2", _check_dm_integral, ((1.0, 1.0, 1.0), 2), True, big),
        ("dm-integral-n2-m5", _check_dm_integral, ((2.0, 1.0), 5), True, big),
        ("beta-binomial-merge-n3-m4", _check_beta_binomial_merge, ((1.0, 1.0, 1.0), 4), False, 0),
        ("beta-binomial-merge-n3-m7", _check_beta_binomial_merge, ((2.0, 1.5, 1.5), 7), False, 0),
        ("beta-binomial-merge-n2-m6", _check_beta_binomial_merge, ((1.5, 2.5), 6), False, 0),
        ("nb-mixture-chisq-R2-theta1", _check_nb_mixture, (2.0, 1.0), True, big),
        ("nb-mixture-chisq-R1-theta0.5", _check_nb_mixture, (1.0, 0.5), True, big),
        ("nb-mixture-chisq-R3.5-theta0.8", _check_nb_mixture, (3.5, 0.8), True, big),
        ("nb-mixture-chisq-R0.7-theta2", _check_nb_mixture, (0.7, 2.0), True, big),
        ("nb-mixture-chisq-R5-theta0.3", _check_nb_mixture, (5.0, 0.3), True, big),
        ("gamma-common-scale-sum-ks-r1.3+2.2-theta0.7",
         _check_gamma_common_scale_sum, (1.3, 2.2, 0.7), True, big),
        ("poisson-superposition-chisq-1.5+2.5",
         _check_poisson_superposition, (1.5, 2.5), True, big),
        ("multinomial-normalization", _check_multinomial_normalization, (m_cap,), False, 20),
        ("dirichlet-multinomial-normalization", _check_dm_normalization, (m_cap,), False, 20),
        ("dirichlet-multinomial-symmetry", _check_dm_symmetry, (), False, 50),
        ("negative-binomial-normalization", _check_nb_normalization, (), False, 0),
        ("normalized-nb-mass-r1-1-theta1", _check_normalized_nb_mass, ((1.0, 1.0), 1.0), False, 0),
        ("normalized-nb-mass-r2.5-1.5-1-theta0.7",
         _check_normalized_nb_mass, ((2.5, 1.5, 1.0), 0.7), False, 0),
        ("normalized-nb-mass-r0.8-1.7-theta2",
         _check_normalized_nb_mass, ((0.8, 1.7), 2.0), False, 0),
        ("normalized-nb-value-partition", _check_value_pmf_partition, (), False, 0),
        ("alr-density-normalization-quadrature", _check_alr_normalization_quadrature, (), False, 0),
    ]


def run_all(seed: int, level: str = "full") -> list[CheckReport]:
    """Run the whole verification suite deterministically.

    Every check gets a substream derived from ``seed``; the quick level
    caps statistical sample sizes at 10^4 and enumeration totals at 8.
    Failing statistical checks are retried once at 10x the sample size
    before being declared failed.  A check that raises is reported as
    failed, with NaN statistic and threshold and the exception's type and
    message as its detail, under the seed and size of the run that raised,
    and the rest still run.  Running out of memory is not caught.
    Reports come back in a fixed order.
    """
    seed = _as_count(seed, "seed")
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    reports: list[CheckReport] = []
    for index, (name, check, args, statistical, trials) in enumerate(_suite(level)):
        run_seed, size, retried = _child_seed(seed, index), trials, ""
        try:
            report = check(name, *args, size, np.random.default_rng(run_seed), run_seed)
            if statistical and not report.passed and not report.inconclusive:
                run_seed, size = _child_seed(seed, index, stage=1), 10 * trials
                retried = "; retried at 10x samples"
                report = check(name, *args, size, np.random.default_rng(run_seed), run_seed)
                report = replace(report, detail=(report.detail + retried).lstrip("; "))
        except MemoryError:  # the CLI reports running out of memory as such
            raise
        except Exception as exc:  # one raising check must not hide the others
            report = CheckReport(name=name, statistic=math.nan, threshold=math.nan, passed=False,
                                 size=size, seed=run_seed,
                                 detail=f"raised {type(exc).__name__}: {exc}{retried}")
        reports.append(report)
    return reports
