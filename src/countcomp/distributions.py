"""Densities, mass functions and samplers for the count/composition chain.

The continuous side: Dirichlet on the simplex and its two push-forwards,
the Inverted Dirichlet (ratio coordinates) and the ALR-Dirichlet
(log-ratio coordinates).

The count side is the normalize-condition chain.  Independent
Poisson(lambda_i) counts with Gamma(r_i, theta) intensities sharing one
scale give:

* total S ~ NegativeBinomial(R, p) with R = sum(r), p = theta/(1+theta);
* counts given S = m and lambda ~ Multinomial(m, lambda/lambda');
* counts given S = m alone ~ DirichletMultinomial(r);
* one count given S = m (others merged) ~ BetaBinomial(r_1, R - r_1, m);
* the normalized count Y_1 = X_1/S has mass NB(m) * BetaBinomial(k)
  on pairs (k, m).

Everything is log-domain first; exponentiate for linear values.  The
negative binomial follows the convention in which ``p`` multiplies
``p^m`` and ``(1-p)^R`` is the fixed factor, so the mean is
``R * theta``; some libraries swap the roles of p and 1-p.

Note on the normalized count: its pair mass function here includes the
m = 0 atom (probability (1-p)^R, with k forced to 0), so the total mass
is exactly 1.  Restricting to m >= 1, as the ratio k/m strictly
requires, leaves total mass 1 - (1-p)^R.  Both the pair PMF and a
value-aggregated PMF (mass of each reduced rational k/m) are provided.

Samplers take an explicit ``numpy.random.Generator``; identical seeds
give identical streams.  Concurrent sampling needs distinct generators.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import NamedTuple

import numpy as np

from ._rules import (
    RowError,
    _as_count,
    _as_float,
    _count_row,
    _count_rows,
    _non_real_row,
    _positive_float,
    _positive_floats,
    _positive_rows,
    _read_only_array,
    _reject_rows,
    _require,
)
from .simplex import (
    Composition,
    LogRatioVector,
    RatioVector,
    _append_column,
    _checked_compositions,
    _checked_log_ratios,
    _ValueObject,
    composition_rows,
    ratio_rows,
)
from .special import (
    _dot,
    _fsum_columns,
    _log_each,
    _log_exp_sum,
    _log_gamma_distinct,
    _log_gamma_each,
    _log_gamma_map,
    _log_multivariate_beta_terms,
    _math_each,
    _row_sum,
    log_sum_exp_rows,
)

__all__ = [
    "DirichletParams",
    "GammaMixtureParams",
    "CountVector",
    "count_rows",
    "BetaBinomialParams",
    "AggregatedValueMass",
    "dirichlet_log_pdf",
    "dirichlet_log_pdf_rows",
    "dirichlet_sample",
    "inverted_dirichlet_log_pdf",
    "inverted_dirichlet_log_pdf_rows",
    "alr_dirichlet_log_pdf",
    "alr_dirichlet_log_pdf_rows",
    "gamma_sample",
    "poisson_sample",
    "negative_binomial_log_pmf",
    "negative_binomial_log_pmf_rows",
    "negative_binomial_sample_via_mixture",
    "multinomial_log_pmf",
    "multinomial_log_pmf_rows",
    "multinomial_sample",
    "dirichlet_multinomial_log_pmf",
    "dirichlet_multinomial_log_pmf_rows",
    "beta_binomial_log_pmf",
    "normalized_nb_log_pmf",
    "normalized_nb_log_pmf_rows",
    "normalized_nb_value_pmf",
    "nb_truncation_bound",
]


# ---------------------------------------------------------------------------
# Parameter and data bundles
# ---------------------------------------------------------------------------


class DirichletParams(_ValueObject):
    """Concentration vector alpha of a Dirichlet law, length n >= 2.

    The checked concentrations are kept as a tuple of Python floats,
    which the densities read; the ``alpha`` array is built from it on
    first read.
    """

    _fields = ("alpha",)
    _array = None  # the alpha array once read

    def __init__(self, alpha):
        object.__setattr__(self, "_row", tuple(_positive_floats(alpha, "DirichletParams", 2)))

    @property
    def alpha(self) -> np.ndarray:
        """The concentrations as a read-only float vector."""
        return _kept_array(self, np.float64)

    @property
    def n(self) -> int:
        return len(self._row)

    @property
    def total(self) -> float:
        """sum(alpha), added left to right (``_row_sum``)."""
        return _row_sum(self._row)

    def log_normalizer(self) -> float:
        """log B(alpha).  The constructor has checked alpha, so the formula
        is taken without the public ``log_multivariate_beta``'s second
        check."""
        return _log_multivariate_beta_terms(_log_gamma_map, math.fsum, self._row)


class GammaMixtureParams(_ValueObject):
    """Per-component Gamma shapes r_1..r_n with one shared scale theta.

    Derived: R = sum(r) and the count-success probability
    p = theta / (1 + theta).  The checked shapes are kept as a tuple of
    Python floats, which the count masses read; the ``shapes`` array is
    built from it on first read.
    """

    _fields = ("shapes", "scale")
    _array = None  # the shapes array once read

    def __init__(self, shapes, scale):
        shapes = tuple(_positive_floats(shapes, "GammaMixtureParams shapes", 1))
        object.__setattr__(self, "_row", shapes)
        object.__setattr__(self, "scale", _positive_float(scale, "GammaMixtureParams scale"))

    @property
    def shapes(self) -> np.ndarray:
        """The shapes as a read-only float vector."""
        return _kept_array(self, np.float64)

    @property
    def n(self) -> int:
        return len(self._row)

    @property
    def total_shape(self) -> float:
        """R = sum of the shapes, added left to right (``_row_sum``)."""
        return _row_sum(self._row)

    @property
    def success_prob(self) -> float:
        """p = theta / (1 + theta), in (0, 1)."""
        return self.scale / (1.0 + self.scale)


def count_rows(values) -> np.ndarray:
    """Check every row of an (N, n) array as a CountVector.

    Returns the rows as a new read-only int64 array.  The rules are those
    of the CountVector constructor, which calls this on any row its
    one-row entry does not accept; a RowError names the first row that
    breaks one.  Integer input is
    checked exactly; other input must hold integral values.  Every entry
    must fit in int64; text and bools are refused.
    """
    return _count_rows(values, "CountVector")


class CountVector(_ValueObject):
    """Non-negative integer counts with their total cached.

    The checked counts are kept as a tuple of Python ints, which the count
    masses read; the ``counts`` array is built from it on first read.
    """

    _fields = ("counts", "total")
    _array = None  # the counts array once read

    def __init__(self, counts):
        ints, total = _count_row(counts, "CountVector")
        object.__setattr__(self, "_row", tuple(ints))
        object.__setattr__(self, "total", total)

    @property
    def counts(self) -> np.ndarray:
        """The counts as a read-only int64 vector."""
        return _kept_array(self, np.int64)

    @property
    def n(self) -> int:
        return len(self._row)


def _kept_array(obj, dtype) -> np.ndarray:
    """The checked row ``obj._row`` as a read-only array of ``dtype``,
    built on first read and kept."""
    arr = obj._array
    if arr is None:
        arr = _read_only_array(obj._row, dtype)
        object.__setattr__(obj, "_array", arr)
    return arr


class BetaBinomialParams(_ValueObject):
    """Beta-Binomial with shape a (= r_1), b (= R - r_1) and m trials."""

    _fields = ("a", "b", "m")

    def __init__(self, a, b, m):
        a = _positive_float(a, "BetaBinomialParams a")
        b = _positive_float(b, "BetaBinomialParams b")
        if not math.isfinite(a + b):
            raise ValueError("BetaBinomialParams: a + b overflows float64")
        m = _as_count(m, "m")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)


def _as_shapes(params) -> list[float] | tuple[float, ...]:
    """The shapes of a GammaMixtureParams (scale unused), the alpha of a
    DirichletParams or a bare shape vector, checked, as Python floats."""
    if isinstance(params, (GammaMixtureParams, DirichletParams)):
        return params._row
    return _positive_floats(params, "shape vector", 1)


# ---------------------------------------------------------------------------
# Continuous laws: Dirichlet and its push-forwards
# ---------------------------------------------------------------------------


def dirichlet_log_pdf(params: DirichletParams, x: Composition) -> float:
    """log density of Dir(alpha) at a composition:
    ``-log B(alpha) + sum (alpha_i - 1) log x_i``."""
    _require(params, DirichletParams, "params")
    if _require(x, Composition, "x").n != params.n:
        raise ValueError(f"dimension mismatch: alpha has {params.n} entries, x has {x.n}")
    return _dirichlet_log_terms(params.log_normalizer(), params._row, np.log(x.entries).tolist())


def inverted_dirichlet_log_pdf(params: DirichletParams, y: RatioVector) -> float:
    """log density of the ratio push-forward of Dir(alpha) in the
    composition x that y maps to (x_i = y_i / z, x_n = 1 / z):
    ``-log B(alpha) + sum_{i<n} (alpha_i - 1) log x_i + (alpha_n + n - 1) log x_n``.
    Every log x_i is <= 0, so no terms cancel; -inf only below about -FLOAT_MAX."""
    _check_coordinates(params, y, RatioVector)
    return _inverted_dirichlet_log_terms(params.log_normalizer(), params._row,
                                         _half_log_x(y.entries.tolist(), True))


def alr_dirichlet_log_pdf(params: DirichletParams, y: LogRatioVector) -> float:
    """log density of the log-ratio push-forward of Dir(alpha) in the
    composition x that y maps to (x_i = e^(y_i) / k, x_n = 1 / k):
    ``-log B(alpha) + sum_i alpha_i log x_i``.  Every term after -log B is
    <= 0, so no terms cancel; -inf only below about -FLOAT_MAX."""
    _check_coordinates(params, y, LogRatioVector)
    return _alr_dirichlet_log_terms(params.log_normalizer(), params._row,
                                    _half_log_x(y.entries.tolist(), False))


def _check_coordinates(params: DirichletParams, y, cls: type) -> None:
    """Refuse ratio or log-ratio coordinates y (of class ``cls``) of
    another dimension than alpha: n entries of alpha need n - 1
    coordinates."""
    _require(params, DirichletParams, "params")
    if _require(y, cls, "y").n != params.n:
        raise ValueError(
            f"dimension mismatch: alpha has {params.n} entries, so y needs "
            f"{params.n - 1}, got {y.entries.size}"
        )


# The three log densities, written once.  alpha and the log point hold
# one value per component: Python floats for one point, with log B a
# float, or columns over the rows of a batch (alpha's columns over one row
# or N), with log B an array.  ``_dot`` sums each row left to right, so a
# point and its batch row agree bit for bit.  The push-forwards take half
# of log x from ``_half_log_x`` or ``_half_log_x_rows``, never from the
# inverse maps, so that the suite's change-of-variables rows compare two
# routes; their weights are doubled, so each product is the one of the
# whole log x, bit for bit.


def _dirichlet_log_terms(log_b, alpha, log_x):
    return -log_b + _dot([a - 1.0 for a in alpha], log_x)


def _inverted_dirichlet_log_terms(log_b, alpha, half_log_x):
    weights = [2.0 * (a - 1.0) for a in alpha]
    weights[-1] = 2.0 * (alpha[-1] + (len(alpha) - 1))  # the Jacobian z^-n = x_n^n
    return -log_b + _dot(weights, half_log_x)


def _alr_dirichlet_log_terms(log_b, alpha, half_log_x):
    # The Jacobian prod_i x_i turns each alpha_i - 1 into alpha_i, doubled.
    return -log_b + _dot(map(operator.add, alpha, alpha), half_log_x)


_MIN_NORMAL = sys.float_info.min


# Half of log x, for the composition x that ratio coordinates y (ratio) or
# log-ratio coordinates y map to, in O(n).  Its weights are (y, 1), or
# (e^y, 1) kept as their logs (y, 0).  With w_j the largest weight (the
# first, if tied) and t the sum of the others over it,
#     log x_j = -log1p(t),  log x_i = log(w_i / w_j) - log1p(t).
# Both terms are <= 0, so nothing cancels, and log x_i stays exact where x_i
# rounds to 1.  For the ratio map log(w_i / w_j) is taken as
# log w_i - log w_j where the quotient is below the smallest normal float;
# for the log-ratio map it is y_i - y_j, whose half is a float even where
# the difference passes -FLOAT_MAX.  Halving is exact for normal floats.


def _half_log_x(y: list, ratio: bool) -> list:
    """Half of log x for one point, from its coordinates as Python floats."""
    w = [*y, 1.0 if ratio else 0.0]
    top = max(w)
    j = w.index(top)
    if ratio:
        shift = 0.5 * math.log1p(_row_sum(w[:j] + w[j + 1:]) / top)
        return [0.5 * (math.log(q) if (q := v / top) >= _MIN_NORMAL
                       else math.log(v) - math.log(top)) - shift for v in w]
    half = [0.5 * v - 0.5 * top for v in w]
    others = list(map(math.exp, half))
    others[j] = 0.0  # adding 0.0 leaves a positive sum as it is
    shift = 0.5 * math.log1p(_row_sum(map(operator.mul, others, others)))
    return [h - shift for h in half]


def _half_log_x_rows(y: np.ndarray, ratio: bool) -> np.ndarray:
    """``_half_log_x`` of each row of an (N, n-1) array, as (n, N) columns
    with the bits of the one-point values."""
    w = _append_column(y, 1.0 if ratio else 0.0)
    rows = np.arange(w.shape[0])
    j = np.argmax(w, axis=1)  # the first largest, as list.index(max) finds it
    top = w[rows, j][:, None]
    if ratio:
        others = w.copy()
        others[rows, j] = 0.0  # adding 0.0 leaves a positive sum as it is
        t = _row_sum(list(others.T)) / top[:, 0]
        q = w / top
        small = q < _MIN_NORMAL
        q[small] = 1.0
        half = _log_each(q)
        half[small] = _log_each(w[small]) - _log_each(top[small.nonzero()[0], 0])
        half *= 0.5
    else:
        half = 0.5 * w - 0.5 * top
        others = _math_each(math.exp, half)
        others *= others
        others[rows, j] = 0.0
        t = _row_sum(list(others.T))
    return (half - 0.5 * _math_each(math.log1p, t)[:, None]).T


def dirichlet_log_pdf_rows(alpha, x) -> np.ndarray:
    """Batch form of ``dirichlet_log_pdf``: the log density at each row
    of an (N, n) array of compositions, as an (N,) array.

    ``alpha`` is one (n,) concentration vector for every row, or an
    (N, n) array with one per row.  The rows of ``x`` must pass the
    Composition rules and are used as given, not renormalized: entry i
    equals ``dirichlet_log_pdf(DirichletParams(alpha_i), c)`` bit for bit
    for the Composition c whose entries are ``x[i]``, such as the rows
    ``composition_rows`` and the batch maps return.  A RowError names
    the first bad row.
    """
    x, _ = _checked_compositions(x)
    alpha, log_b = _alpha_rows(alpha, *x.shape)
    return _dirichlet_log_terms(log_b, alpha.T, np.log(x).T)


def inverted_dirichlet_log_pdf_rows(alpha, y) -> np.ndarray:
    """Batch form of ``inverted_dirichlet_log_pdf``: the log density at
    each row of an (N, n-1) array of ratio coordinates, each checked as a
    RatioVector (``ratio_rows``), as an (N,) array.  ``alpha`` is as in
    ``dirichlet_log_pdf_rows``; entry i equals the scalar value at
    ``RatioVector(y[i])`` bit for bit."""
    y, _ = ratio_rows(y)
    alpha, log_b = _alpha_rows(alpha, y.shape[0], y.shape[1] + 1)
    return _inverted_dirichlet_log_terms(log_b, alpha.T, _half_log_x_rows(y, True))


def alr_dirichlet_log_pdf_rows(alpha, y) -> np.ndarray:
    """Batch form of ``alr_dirichlet_log_pdf``: the log density at each
    row of an (N, n-1) array of log-ratio coordinates, each checked as a
    LogRatioVector (``log_ratio_rows``), as an (N,) array.  ``alpha`` is
    as in ``dirichlet_log_pdf_rows``; entry i equals the scalar value at
    ``LogRatioVector(y[i])`` bit for bit."""
    y = _checked_log_ratios(y)
    alpha, log_b = _alpha_rows(alpha, y.shape[0], y.shape[1] + 1)
    return _alr_dirichlet_log_terms(log_b, alpha.T, _half_log_x_rows(y, False))


def _alpha_rows(alpha, rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The concentrations for ``rows`` points of dimension n: a (1, n) or
    (rows, n) array, with log B of each of its rows."""
    arr = np.asarray(alpha)
    if arr.shape[-1:] != (n,) or arr.shape[:-1] not in ((), (1,), (rows,)):
        raise ValueError(
            f"dimension mismatch: alpha must be ({n},) or ({rows}, {n}), "
            f"got shape {np.shape(alpha)}"
        )
    arr = _positive_rows(arr.reshape(-1, n), "DirichletParams", 2)
    return arr, _log_multivariate_beta_terms(_log_gamma_each, _fsum_columns, arr.T)


def dirichlet_sample(params: DirichletParams, rng: np.random.Generator, size=None):
    """Draw from Dir(alpha) by normalizing independent Gamma(alpha_i, 1) draws.

    Deliberately the gamma-normalization construction, not stick
    breaking, so the sampler itself exercises the claim that normalized
    common-scale Gamma intensities are Dirichlet.

    Without ``size``, returns one Composition.  With ``size``, returns a
    read-only (size, n) array of one Gamma batch per column, normalized,
    each row checked as a Composition (``composition_rows``).  A row
    whose Gammas all underflow to 0 breaks the normal-float floor rule,
    as a row with one such entry does.
    """
    _require(params, DirichletParams, "params")
    rows = 1 if size is None else _as_count(size, "size")
    draws = np.column_stack([gamma_sample(a, 1.0, rng, size=rows) for a in params._row])
    totals = draws.sum(axis=1, keepdims=True)
    # An all-zero row stays 0 rather than 0/0, so the floor rule names it.
    normalized = draws / np.where(totals > 0.0, totals, 1.0)
    return Composition(normalized[0]) if size is None else composition_rows(normalized)


# ---------------------------------------------------------------------------
# Elementary samplers
# ---------------------------------------------------------------------------
#
# Each sampler is written once, over an array of draws; without ``size``
# it returns row 0 of ``size=1`` and leaves the generator where
# ``size=1`` leaves it.  The rejection samplers draw their variates for
# every pending entry, keep the accepted entries and draw again only for
# the rest.


def _gamma_std(shape: float, size: int, rng: np.random.Generator) -> np.ndarray:
    # Marsaglia-Tsang (2000) squeeze method, valid for shape >= 1.
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(size)
    pending = np.arange(size)
    while pending.size:
        x = rng.standard_normal(pending.size)
        u = rng.random(pending.size)
        v = 1.0 + c * x
        v3 = v * v * v
        accept = (v > 0.0) & (u < 1.0 - 0.0331 * x * x * x * x)
        slow = np.flatnonzero((v > 0.0) & ~accept & (u > 0.0))
        accept[slow] = np.log(u[slow]) < 0.5 * x[slow] ** 2 + d * (
            1.0 - v3[slow] + np.log(v3[slow]))
        out[pending[accept]] = d * v3[accept]
        pending = pending[~accept]
    return out


def gamma_sample(shape: float, scale: float, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, scale), mean shape * scale: one float, or a
    (size,) array.

    Rejection sampling for any shape > 0: Marsaglia-Tsang for
    shape >= 1, boosted by ``U^(1/shape)`` below 1.  A draw past the
    largest float is refused by a ValueError; one that fits is kept, also
    where its ``scale * std`` overflows.
    """
    shape, scale = _positive_float(shape, "shape"), _positive_float(scale, "scale")
    rows = 1 if size is None else _as_count(size, "size")
    with np.errstate(over="ignore", invalid="ignore"):
        if shape < 1.0:
            u = 1.0 - rng.random(rows)  # in (0, 1]
            std, boost = _gamma_std(shape + 1.0, rows, rng), u ** (1.0 / shape)
            draws = scale * std * boost
            # scale * std can overflow where the draw fits: take those
            # entries in the other order.
            over = ~np.isfinite(draws)
            draws[over] = scale * (std[over] * boost[over])
        else:
            draws = scale * _gamma_std(shape, rows, rng)
    if not np.isfinite(draws).all():
        raise ValueError(f"Gamma(shape={shape!r}, scale={scale!r}) draws overflow float64")
    return float(draws[0]) if size is None else draws


def _poisson(rate: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # One draw per entry of ``rate`` (all >= 0): the entries at rate <= 30
    # first, by inversion, then the rest by PTRS.
    if rate.size and rate.max() >= 2.0**62:
        raise ValueError("Poisson rates must lie below 2**62, so that draws fit in int64")
    out = np.empty(rate.size, dtype=np.int64)
    small = rate <= 30.0
    out[small] = _poisson_inversion(rate[small], rng)
    out[~small] = _poisson_ptrs(rate[~small], rng)
    return out


def _poisson_inversion(rate: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Sequential search of the CDF, one uniform per draw.  Entry by entry
    # the recurrence and the cap are those of a single search, so a batch
    # at one rate equals as many successive single draws.  A batch of
    # several draws at one rate runs the recurrence once, into a table.
    u = rng.random(rate.size)
    if rate.size > 1 and rate.min() == rate.max():
        return _poisson_table_search(float(rate[0]), u)
    p = np.fromiter(map(math.exp, (-rate).tolist()), float, rate.size)
    cum = p.copy()
    k = np.zeros(rate.size, dtype=np.int64)
    cap = 200 + (20.0 * rate).astype(np.int64)
    pending = np.flatnonzero(u > cum)
    while pending.size:
        k[pending] += 1
        p[pending] *= rate[pending] / k[pending]
        cum[pending] += p[pending]
        pending = pending[(u[pending] > cum[pending]) & (k[pending] < cap[pending])]
    return k


def _poisson_table_search(rate: float, u: np.ndarray) -> np.ndarray:
    # The CDF at 0..cap by the recurrence of ``_poisson_inversion``: the
    # accumulations run in order, p_k = p_(k-1) * (rate / k) and
    # cum_k = cum_(k-1) + p_k.  Each draw is the first k whose CDF reaches
    # its uniform, or the cap; the CDF never decreases, so a binary
    # search finds that k.
    cap = 200 + int(20.0 * rate)
    factors = np.empty(cap + 1)
    factors[0] = math.exp(-rate)
    factors[1:] = rate / np.arange(1, cap + 1)
    cum = np.add.accumulate(np.multiply.accumulate(factors))
    return np.minimum(np.searchsorted(cum, u), cap)


def _poisson_ptrs(rate: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Hormann's (1993) transformed rejection with squeeze, for large rates.
    b = 0.931 + 2.53 * np.sqrt(rate)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(rate.size, dtype=np.int64)
    pending = np.arange(rate.size)
    while pending.size:
        u = rng.random(pending.size) - 0.5
        v = rng.random(pending.size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a[pending] / us + b[pending]) * u + rate[pending] + 0.43)
        accept = (us >= 0.07) & (v <= v_r[pending])
        test = np.flatnonzero(~accept & (k >= 0.0) & ((us >= 0.013) | (v <= us)) & (v > 0.0))
        t = pending[test]
        (lg_k1,) = _log_gamma_distinct(k[test] + 1.0)
        log_ratio = np.log(v[test] * inv_alpha[t] / (a[t] / (us[test] * us[test]) + b[t]))
        accept[test] = log_ratio <= k[test] * np.log(rate[t]) - rate[t] - lg_k1
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return out


def poisson_sample(rate: float, rng: np.random.Generator, size=None):
    """Draw from Poisson(rate): one int, or a (size,) int64 array.  CDF
    inversion for rate <= 30, transformed rejection above."""
    rate = _positive_float(rate, "rate")
    rows = 1 if size is None else _as_count(size, "size")
    draws = _poisson(np.full(rows, rate), rng)
    return int(draws[0]) if size is None else draws


def negative_binomial_sample_via_mixture(
    R: float, theta: float, rng: np.random.Generator, size=None
):
    """Draw the count total by its mixture construction: Lambda ~
    Gamma(R, theta), then X ~ Poisson(Lambda).  Marginally
    NB(R, p = theta/(1+theta)).  One int, or a (size,) int64 array."""
    R, theta = _positive_float(R, "R"), _positive_float(theta, "theta")
    lam = gamma_sample(R, theta, rng, size=1 if size is None else size)
    draws = _poisson(lam, rng)  # a Lambda that underflows to 0 gives 0
    return int(draws[0]) if size is None else draws


def multinomial_sample(m: int, probs: Composition, rng: np.random.Generator, size=None):
    """Draw Multinomial(m, probs) by sequential binomial thinning; the
    total is exactly m.

    Without ``size``, returns one CountVector.  With ``size``, returns a
    read-only (size, n) int64 array, thinned one category at a time
    across all rows and checked by ``count_rows``.
    """
    m = _as_count(m, "m")
    _require(probs, Composition, "probs")
    rows = 1 if size is None else _as_count(size, "size")
    # Suffix sums keep the conditional probabilities well scaled.
    suffix = np.cumsum(probs.entries[::-1])[::-1]
    cond = np.clip(probs.entries[:-1] / suffix[:-1], 0.0, 1.0)
    counts = np.empty((rows, probs.n), dtype=np.int64)
    remaining = np.full(rows, m, dtype=np.int64)
    for i, p in enumerate(cond):
        counts[:, i] = rng.binomial(remaining, p)
        remaining -= counts[:, i]
    counts[:, -1] = remaining
    return CountVector(counts[0]) if size is None else count_rows(counts)


# ---------------------------------------------------------------------------
# Count mass functions
# ---------------------------------------------------------------------------


def negative_binomial_log_pmf(R: float, p: float, m: int) -> float:
    """log NB(R, p) mass at m: ``log C(m+R-1, m) + R log(1-p) + m log p``.
    From R = 10^6 on, log G(m+R) - log G(R) is Stirling's series: no log-gamma at R.

    ``p`` multiplies the p^m factor (so the mean is R p / (1-p)); this
    is the opposite of some libraries' convention.
    """
    R, p = _nb_params(R, p)
    m = _as_count(m, "m")
    return _nb_log_terms(_log_gamma_map, R, p, m)


def negative_binomial_log_pmf_rows(R: float, p: float, m) -> np.ndarray:
    """Batch form of ``negative_binomial_log_pmf`` over an array of totals
    ``m`` checked by the CountVector rule, as an array in its shape (0-d
    included); each entry equals the scalar value bit for bit."""
    R, p = _nb_params(R, p)
    m = np.asarray(m)
    return _nb_log_terms(_log_gamma_distinct, R, p, _count_entries(m, "m")).reshape(m.shape)


def _nb_params(R, p) -> tuple[float, float]:
    R = _positive_float(R, "R")
    p = _as_float(p, "p")
    if not math.isfinite(p) or not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return R, p


def _count_entries(values: np.ndarray, what: str) -> np.ndarray:
    """The entries of an array checked by the CountVector rule, as a flat
    int64 array; ``what`` names them in a RowError."""
    return _count_rows(values.reshape(-1, 1), what)[:, 0]


# The NB log mass, written once.  ``lgs`` is ``_log_gamma_map`` for one
# total or ``_log_gamma_each`` / ``_log_gamma_distinct`` for an array of them
# (int64, or floats holding integers below 2**53); all give the same bits for
# the same total.


def _nb_log_terms(lgs, R: float, p: float, m):
    if R < _SERIES_SHAPE:
        lg_m_r, lg_r, lg_m1 = lgs(m + R, R, m + 1.0)
        log_rise = lg_m_r - lg_r
    else:
        log_rise, (lg_m1,) = _log_rise(R, m), lgs(m + 1.0)
    return log_rise - lg_m1 + R * math.log1p(-p) + m * math.log(p)


# From this shape on, ``_log_rise`` takes log G(m+R) - log G(R) by Stirling's
# series (omitted terms below 1e-20), with no log-gamma at R: a difference of
# two log-gammas near R log R loses their ulps, and past about 2.56e305 overflows.
# An array of totals is mapped entry by entry through ``math``, so that a batch
# equals its scalar values bit for bit, and no numpy overflow warning is raised.
_SERIES_SHAPE = 1e6


def _log_rise(R: float, m):
    if isinstance(m, np.ndarray):
        return np.array([_log_rise(R, total) for total in m.ravel().tolist()]).reshape(m.shape)
    return (R - 0.5) * math.log1p(m / R) + m * math.log(m + R) - m - m / (12.0 * R * (m + R))


def multinomial_log_pmf(m: int, probs: Composition, x: CountVector) -> float:
    """log Multinomial(m, probs) mass at counts x:
    ``log m! - sum log x_i! + sum x_i log p_i``."""
    m = _checked_point_total(x, m, _require(probs, Composition, "probs").n, "probs")
    return _multinomial_log_terms(_log_gamma_map, m, x._row, np.log(probs.entries).tolist())


def multinomial_log_pmf_rows(m, probs: Composition, x) -> np.ndarray:
    """Batch form of ``multinomial_log_pmf``: the log mass at each row of
    an (N, n) count array, each checked as a CountVector (``count_rows``),
    as an (N,) array.  ``m`` is one total for every row or an (N,) array
    of them.  Entry i equals ``multinomial_log_pmf(m_i, probs,
    CountVector(x[i]))`` bit for bit; a RowError names the first row
    that fails a check."""
    _require(probs, Composition, "probs")
    x = count_rows(x)
    m = _checked_totals(x, m, probs.n, "probs")
    return _multinomial_log_terms(_log_gamma_distinct, m, x.T, np.log(probs.entries).tolist())


# The multinomial and Dirichlet-Multinomial log masses, written once,
# for one point or a batch.  ``m`` is the total or an array of totals,
# and ``counts`` holds one value per component: numbers for one point,
# with ``lgs`` = ``_log_gamma_map`` and ``fsum`` = ``math.fsum``, or
# columns over the rows of a batch, with ``_log_gamma_distinct`` and
# ``_fsum_columns``.  (Python numbers keep the scalar path cheap.)  The
# multinomial's log probabilities are Python floats for both.


def _log_multinomial_coefficient(lgs, m, counts):
    """``log m! - sum log c_i!``, the sum taken in component order."""
    lg_m1, *lg_c1 = lgs(m + 1.0, *[c + 1.0 for c in counts])
    # A left fold, for floats as for columns: from Python 3.12 on, sum()
    # compensates a sum of floats but not one of arrays.
    return lg_m1 - functools.reduce(operator.add, lg_c1)


def _multinomial_log_terms(lgs, m, counts, log_p):
    return _log_multinomial_coefficient(lgs, m, counts) + _dot(counts, log_p)


def _dm_log_terms(lgs, fsum, m, counts, r):
    n, big_r = len(r), math.fsum(r)
    lg_m1, lg_big_r, lg_m_big_r, *lg = lgs(
        m + 1.0, big_r, m + big_r,
        *[c + r_i for c, r_i in zip(counts, r)], *r, *[c + 1.0 for c in counts],
    )
    shares = [c_r - r_i - c_1 for c_r, r_i, c_1 in zip(lg[:n], lg[n:2 * n], lg[2 * n:])]
    # fsum keeps the result exactly invariant under joint permutation of
    # shapes and counts.
    return lg_m1 + lg_big_r - lg_m_big_r + fsum(shares)


def dirichlet_multinomial_log_pmf(params, m: int, x: CountVector) -> float:
    """log Dirichlet-Multinomial mass at counts x for shape vector r:
    ``log m! - sum log x_i! + log G(R) - log G(m+R)
    + sum [log G(x_i+r_i) - log G(r_i)]``.

    ``params`` may be a GammaMixtureParams (its scale is irrelevant
    here) or a bare positive shape vector.
    """
    r = _as_shapes(params)
    m = _checked_point_total(x, m, len(r), "shapes")
    return _dm_log_terms(_log_gamma_map, math.fsum, m, x._row, r)


def dirichlet_multinomial_log_pmf_rows(params, m, x) -> np.ndarray:
    """Batch form of ``dirichlet_multinomial_log_pmf``: the log mass at
    each row of an (N, n) count array, each checked as a CountVector, as
    an (N,) array, for one shape vector.  ``m`` is as in
    ``multinomial_log_pmf_rows``.  Entry i equals the scalar value bit for
    bit, and so keeps its exact permutation invariance."""
    r = _as_shapes(params)
    x = count_rows(x)
    m = _checked_totals(x, m, len(r), "shapes")
    return _dm_log_terms(_log_gamma_distinct, _fsum_columns, m, x.T, r)


def _checked_point_total(x: CountVector, m, n: int, what: str) -> int:
    """``_checked_totals`` for one CountVector: m must equal its exact total."""
    if _require(x, CountVector, "x").n != n:
        raise ValueError(f"dimension mismatch: {what} has {n} entries, x has {x.n}")
    # A total may pass 2**63, so m is compared first; the count rule then
    # names an m that is not a count.
    if m != x.total or type(m) in (bool, np.bool_):
        if type(m) is not int:
            m = _as_count(m, "m")
        raise ValueError(f"counts sum to {x.total}, expected total m={m!r}")
    return x.total


def _checked_totals(x: np.ndarray, m, n: int, what: str) -> np.ndarray:
    """Check that the count rows x have n entries and sum to m (one
    total or one per row); return the totals as floats."""
    if x.shape[1] != n:
        raise ValueError(f"dimension mismatch: {what} has {n} entries, x has {x.shape[1]}")
    if x.shape[1] * int(x.max(initial=0)) < 2**63:
        totals = x.sum(axis=1)
    else:  # an int64 sum could wrap; the exact one, as for CountVector
        totals = np.array([sum(row) for row in x.tolist()], dtype=object)
    m = np.asarray(m)
    if m.shape not in ((), totals.shape):
        raise ValueError(f"m must be one total or {totals.size} totals, got shape {m.shape}")
    row = _non_real_row(m.reshape(-1, 1))
    if row is not None:
        raise RowError(row, "m entries must be integers")
    m = np.broadcast_to(m, totals.shape)
    wrong = np.flatnonzero(totals != m)
    if wrong.size:
        row = int(wrong[0])
        raise RowError(row, f"counts sum to {totals[row]}, expected total m={m[row]}")
    return totals.astype(float)


def beta_binomial_log_pmf(params: BetaBinomialParams, k: int) -> float:
    """log Beta-Binomial mass at k:
    ``log C(m, k) + log B(k+a, m-k+b) - log B(a, b)``."""
    _require(params, BetaBinomialParams, "params")
    k = _as_count(k, "k")
    m = params.m
    if k > m:
        raise ValueError(f"k={k} exceeds the number of trials m={m}")
    # Grouped so that the a == b case is exactly symmetric in k <-> m-k;
    # each log B(x, y) is (log G(x) + log G(y)) - log G(x + y).
    a, b = params.a, params.b
    x, y = k + a, m - k + b
    lg_m1, lg_k1, lg_mk1, lg_x, lg_y, lg_xy, lg_a, lg_b, lg_ab = _log_gamma_map(
        m + 1.0, k + 1.0, m - k + 1.0, x, y, x + y, a, b, a + b
    )
    log_choose = lg_m1 - (lg_k1 + lg_mk1)
    return log_choose + (((lg_x + lg_y) - lg_xy) - ((lg_a + lg_b) - lg_ab))


def normalized_nb_log_pmf(
    params: GammaMixtureParams, component: int, k: int, m: int
) -> float:
    """log mass of the normalized count Y = X_component / S on the pair
    (k, m): ``NB(R, p) at m`` times ``BetaBinomial(r_c, R - r_c, m) at k``.

    X_c ~ NB(r_c, p) is independent of the rest, NB(R - r_c, p), so that
    equals ``NB(r_c, p) at k`` times ``NB(R - r_c, p) at m - k``, the form
    computed, R - r_c being the ``math.fsum`` of the other shapes.  No
    log-gamma is taken at R, so shapes summing past 2.56e305 are evaluated.
    Defined on pairs including m = 0 (k must then be 0): they sum to 1.
    """
    a, b, p = _merged_nb(params, component)
    k = _as_count(k, "k")
    m = _as_count(m, "m")
    if k > m:
        raise ValueError(f"k={k} exceeds the total m={m}")
    return _pair_log_terms(_log_gamma_map, a, b, p, k, m)


def normalized_nb_log_pmf_rows(params: GammaMixtureParams, component: int, k, m) -> np.ndarray:
    """Batch form of ``normalized_nb_log_pmf`` over arrays of pairs (k, m),
    broadcast together and checked as the NB batch form checks m, as an
    array in their shape.  Each entry is the same product of two NB masses
    and equals the scalar value bit for bit."""
    a, b, p = _merged_nb(params, component)
    k, m = np.broadcast_arrays(np.asarray(k), np.asarray(m))
    shape = k.shape
    k, m = _count_entries(k, "k"), _count_entries(m, "m")
    _reject_rows((k > m, lambda i: f"k={k[i]} exceeds the total m={m[i]}"))
    return _pair_log_terms(_log_gamma_distinct, a, b, p, k, m).reshape(shape)


def _pair_log_terms(lgs, a: float, b: float, p: float, k, m):
    # NB(a + b)(m) BB(a, b, m)(k) = NB(a)(k) NB(b)(m - k), the mass of
    # independent NB counts k and m - k.
    return _nb_log_terms(lgs, a, p, k) + _nb_log_terms(lgs, b, p, m - k)


def _merged_nb(params: GammaMixtureParams, component: int) -> tuple[float, float, float]:
    """(r_c, R - r_c, p): the NB laws of one component's count and of the
    rest merged, R - r_c being the ``math.fsum`` of the other shapes.
    p = theta / (1 + theta) must be below 1: a scale past about 2**53
    rounds it to 1."""
    _require(params, GammaMixtureParams, "params")
    component = _as_count(component, "component")
    if component >= params.n:
        raise ValueError(f"component {component} out of range for n={params.n}")
    if params.n == 1:
        raise ValueError("normalized_nb_log_pmf needs at least two components to merge")
    p = params.success_prob
    if not p < 1.0:
        raise ValueError(
            f"GammaMixtureParams scale {params.scale!r} is too large: "
            f"p = scale / (1 + scale) rounds to {p!r}, and the NB total needs p < 1"
        )
    shapes = list(params._row)
    return shapes.pop(component), math.fsum(shapes), p


class AggregatedValueMass(NamedTuple):
    """Aggregated log mass of one rational value, plus the truncation
    bound M (largest total considered) used to compute it."""

    log_mass: float
    truncation_bound: int


# A tail bound below tail_mass * 2^-53 cannot move a sum near tail_mass.
_LOG_NEGLIGIBLE = -53.0 * math.log(2.0)
_LOG_TINY = math.log(2.0**-1022)  # below the smallest normal float, values lose bits
# Most totals nb_truncation_bound walks: 10^6 covers ten standard
# deviations up to an NB variance R p / (1-p)^2 of about 10^10.
_MAX_BOUND_WINDOW = 1_000_000


def nb_truncation_bound(R: float, p: float, tail_mass: float = 1e-12) -> int:
    """Smallest M such that the NB(R, p) mass beyond M is below
    ``tail_mass``.

    The tail beyond M is a suffix sum of PMF values relative to
    ``tail_mass``, never 1 - CDF, so it neither cancels nor underflows.
    It is summed down by pmf(m-1) = pmf(m) m / (p (m-1+R)) from an M_hi
    past which it is at most pmf(M_hi) r / (1 - r), r the larger of p and
    pmf(M_hi+1)/pmf(M_hi) (past the mode that ratio falls toward p).

    Raises
    ------
    ValueError
        On invalid R, p or tail_mass, if the NB mode overflows float64, or
        if the walk spans 10^6 totals.
    """
    tail_mass = _tail_mass(tail_mass)
    return _nb_bound(*_nb_params(R, p), tail_mass)


def _tail_mass(tail_mass) -> float:
    tail_mass = _as_float(tail_mass, "tail_mass")
    if not 0.0 < tail_mass < 1.0:
        raise ValueError("tail_mass must lie in (0, 1)")
    return tail_mass


def _nb_bound(R: float, p: float, tail_mass: float) -> int:
    """``nb_truncation_bound`` on checked arguments."""
    mode, spread = (R - 1.0) * p / (1.0 - p), 10.0 * math.sqrt(R * p) / (1.0 - p)
    if not math.isfinite(mode + spread):
        raise ValueError(f"nb_truncation_bound: the mode of NB({R!r}, {p!r}) overflows float64")
    lo = max(0, math.ceil(mode))  # at or just past the mode
    hi = lo + 16 + math.ceil(spread)
    _check_window(R, p, lo, hi)
    log_tail = math.log(tail_mass)
    log_hi, log_beyond_hi, r = _nb_tail_bound(R, p, hi)
    if log_beyond_hi >= log_tail + _LOG_NEGLIGIBLE:
        # pmf(hi + i) <= pmf(hi) r^i, and the ratio keeps falling.
        hi += math.ceil((log_beyond_hi - log_tail - _LOG_NEGLIGIBLE) / -math.log(r)) + 1
        _check_window(R, p, lo, hi)
        log_hi, log_beyond_hi, r = _nb_tail_bound(R, p, hi)
    # Masses relative to tail_mass: the walk stops where their sum reaches 1.
    beyond, m, log_term = math.exp(log_beyond_hi - log_tail), hi, log_hi - log_tail
    stop = max(0, hi - _MAX_BOUND_WINDOW)
    while log_term < _LOG_TINY and m > stop:  # far out, a value may not be a float
        log_term += math.log(m) - math.log(m - 1.0 + R) - math.log(p)
        m -= 1
    if m == 0:  # every value from 1 to hi lay below 2^-1022 of tail_mass
        return 0
    term, tail = math.exp(log_term), 0.0
    for m in range(m, stop, -1):
        tail += term  # the mass from m to hi; with beyond, the mass beyond m - 1
        if tail + beyond >= 1.0:
            return m
        term *= m / (m - 1.0 + R) / p
    if stop:  # the walk ran out of totals before its tail reached tail_mass
        _check_window(R, p, stop, hi)
    return 0


def _nb_tail_bound(R: float, p: float, m: int) -> tuple[float, float, float]:
    """(log pmf(m), log of pmf(m) r / (1 - r) >= the mass beyond m, r), for
    m past the NB mode, with r >= every ratio pmf(i+1)/pmf(i) for i >= m."""
    r = p * max(m + R, m + 1.0) / (m + 1.0)
    log_pmf = _nb_log_terms(_log_gamma_map, R, p, m)
    return log_pmf, log_pmf + math.log(r / (1.0 - r)), r


def _check_window(R: float, p: float, lo: int, hi: int) -> None:
    if hi - lo >= _MAX_BOUND_WINDOW:
        raise ValueError(
            f"nb_truncation_bound: the tail of NB({R!r}, {p!r}) needs totals "
            f"{lo}..{hi}, more than {_MAX_BOUND_WINDOW} at once")


def normalized_nb_value_pmf(
    params: GammaMixtureParams,
    component: int,
    value,
    tail_mass: float = 1e-12,
) -> AggregatedValueMass:
    """Aggregated log mass of the event Y = value, for a rational value.

    A rational value k/m is realized by every pair (j*k, j*m); their
    ``normalized_nb_log_pmf`` masses, each ``NB(r_c, p) at j*k`` times
    ``NB(R - r_c, p) at j*(m-k)``, are summed for j <= M // m, M being
    ``nb_truncation_bound`` of the NB total.  The arguments are checked
    here; the multiples built from them go to ``math.lgamma`` and to the
    log-sum-exp without a second check.

    ``value`` is a ``fractions.Fraction`` or a ``(k, m)`` tuple or list
    (reduced internally).  The m = 0 atom, of log mass ``R * log(1-p)``,
    is not a rational value and is not included here.
    """
    from fractions import Fraction  # here, so that importing the library loads no fractions

    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"value must be a (k, m) pair, got length {len(value)}")
        m = _as_count(value[1], "value denominator")
        if m < 1:
            raise ValueError("value must have denominator m >= 1")
        value = Fraction(_as_count(value[0], "value numerator"), m)
    elif not isinstance(value, Fraction):
        raise TypeError(
            f"value must be a fractions.Fraction or a (k, m) pair, not {type(value).__name__}")
    k, m = value.numerator, value.denominator
    if k < 0 or k > m:
        raise ValueError(f"value must lie in [0, 1], got {k if m == 1 else f'{k}/{m}'}")
    a, b, p = _merged_nb(params, component)
    bound = _nb_bound(params.total_shape, p, _tail_mass(tail_mass))
    if bound < m:  # no multiple of the value below the bound
        return AggregatedValueMass(-math.inf, bound)
    terms = _value_pair_log_terms(_log_gamma_each, a, b, p, np.array([k]), np.array([m]),
                                  bound // m)
    values = terms[0].tolist()
    # The accept test of log_sum_exp_rows on the Python values: a NaN or an
    # infinity makes the sum not finite, and sends the row to that test.
    if math.isfinite(sum(values)):
        hi = max(values)
        log_mass = hi + _log_exp_sum(terms[0], hi, hi - min(values), math.log)
    else:
        log_mass = float(log_sum_exp_rows(terms)[0])
    return AggregatedValueMass(log_mass, bound)


def _value_pmf_rows(params: GammaMixtureParams, component: int, numerators, denominators,
                    tail_mass: float) -> tuple[np.ndarray, int]:
    """Batch form of ``normalized_nb_value_pmf`` over reduced values k/m in
    [0, 1], as arrays of k and m: the log masses and their shared bound M.
    Values with equal multiple counts are the rows of one unpadded
    ``log_sum_exp_rows``, so each entry equals the value alone bit for bit."""
    a, b, p = _merged_nb(params, component)
    bound = _nb_bound(params.total_shape, p, _tail_mass(tail_mass))
    count = bound // denominators
    out = np.full(count.shape, -math.inf)
    for c in set(count.tolist()) - {0}:
        (rows,) = np.nonzero(count == c)
        out[rows] = log_sum_exp_rows(_value_pair_log_terms(
            _log_gamma_distinct, a, b, p, numerators[rows], denominators[rows], c))
    return out, bound


def _value_pair_log_terms(lgs, a: float, b: float, p: float, numerators, denominators,
                          count: int) -> np.ndarray:
    """Pair log masses at the ``count`` multiples (j k, j m) of each of the
    (N,) values k/m, as an (N, count) array.  ``lgs`` is ``_log_gamma_each``
    for one value, whose multiples seldom repeat, or ``_log_gamma_distinct``
    for many, which share multiples."""
    j = np.arange(1.0, count + 1.0)
    k, m = numerators[:, None] * j, denominators[:, None] * j
    return _pair_log_terms(lgs, a, b, p, k, m)
