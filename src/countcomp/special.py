"""Log-domain special functions and small linear-algebra helpers.

Every density and mass function in this library is evaluated in log
domain: a plain ``float`` carries the log of a positive quantity, with
``-inf`` as the unique representation of zero mass.  Linear-domain
values are obtained by exponentiating, never computed directly, because
the Gamma-function ratios in the count distributions overflow float64
for totals beyond ~170.

The determinant helper works in the linear domain on purpose: its sign
is needed when cross-checking closed-form Jacobians against
finite-difference ones.

Arguments are read by the rules of ``countcomp._rules``.
"""

from __future__ import annotations

import math

import numpy as np

from ._rules import _extremes, _float_array, _positive_float, _positive_rows

__all__ = [
    "log_gamma",
    "log_multivariate_beta",
    "log_multivariate_beta_rows",
    "log_beta",
    "rank_one_update_det",
    "log_sum_exp",
    "log_sum_exp_rows",
]


def log_gamma(a: float) -> float:
    """Return log Gamma(a) for a > 0.

    Computed by CPython's ``math.lgamma``.  Against 50-digit mpmath the
    worst mixed relative error measures at 1.3e-15 over [1e-6, 1e18],
    near 1 and 2 and at the integers 1..3000; it agrees to the last bit
    at the subnormal arguments tested; log Gamma(1) and log Gamma(2) are
    exactly 0.0.  Above about 2.56e305, where log Gamma exceeds the
    largest float, the result is ``+inf``.

    Parameters
    ----------
    a : float
        Strictly positive, finite argument.

    Raises
    ------
    ValueError
        If ``a`` is not a strictly positive finite number.
    """
    a = _positive_float(a, "log_gamma argument")
    try:
        return math.lgamma(a)
    except OverflowError:
        return math.inf


def _log_gamma_each(*args) -> list[np.ndarray]:
    """``log_gamma`` of every entry of each argument, in one batch.

    Each argument is a float or a float array; one float array comes
    back per argument, in its shape.  Every entry is ``math.lgamma`` of
    it, so it equals the scalar ``log_gamma`` bit for bit wherever that
    is finite.  The domain is checked once for all arguments together.

    Raises
    ------
    ValueError
        If an entry is not a strictly positive finite number, or its log
        Gamma overflows float64 (past about 2.56e305).
    """
    parts = [np.asarray(a, dtype=float) for a in args]
    a = np.concatenate([part.ravel() for part in parts])
    lo, _, finite_sum = _extremes(a)
    # Finite entries whose sum overflows fail the accept test; the mask
    # then passes them.
    if not (finite_sum and lo > 0.0) and not (np.isfinite(a) & (a > 0.0)).all():
        raise ValueError("log_gamma requires finite arguments > 0")
    values = a.tolist()
    try:
        out = np.fromiter(map(math.lgamma, values), float, a.size)
    except OverflowError:
        raise ValueError(f"log_gamma({max(values)!r}) overflows float64") from None
    split, start = [], 0
    for part in parts:
        split.append(out[start:start + part.size].reshape(part.shape))
        start += part.size
    return split


def _log_gamma_map(*args) -> list[float]:
    """``log_gamma`` of each argument, as a list: the one-point twin of
    ``_log_gamma_each``, with no batch cost, raising as it does.

    The domain is checked once for all arguments together; where that
    check fails, ``log_gamma`` raises its message for the first bad one.
    """
    # min() skips a NaN that is not first, but the sum is NaN then.
    if not (min(args) > 0.0 and math.isfinite(sum(args))):
        for a in args:
            log_gamma(a)  # raises for a bad argument
    try:
        return list(map(math.lgamma, args))
    except OverflowError:
        raise ValueError(f"log_gamma({max(args)!r}) overflows float64") from None


def _fsum_columns(columns) -> np.ndarray:
    """``math.fsum`` across equal-length columns, row by row: the batch
    twin of ``math.fsum`` over one value per component."""
    rows = np.column_stack(columns)
    return np.fromiter(map(math.fsum, rows.tolist()), float, rows.shape[0])


def log_multivariate_beta(alpha) -> float:
    """Return log B(alpha) = sum_i log Gamma(alpha_i) - log Gamma(sum_i alpha_i).

    Parameters
    ----------
    alpha : array_like
        Vector of at least two strictly positive concentrations.

    Raises
    ------
    ValueError
        If fewer than two entries, any entry is not positive and finite,
        or their sum or a log-gamma term overflows float64.
    """
    alpha = _positive_rows([alpha], "log_multivariate_beta", 2)[0]
    return _log_multivariate_beta_terms(_log_gamma_map, math.fsum, alpha.tolist())


def log_multivariate_beta_rows(alpha) -> np.ndarray:
    """Row-wise ``log_multivariate_beta`` of an (N, n) array, n >= 2, as
    an (N,) array.  Each entry equals the scalar value of its row bit for
    bit.

    Raises
    ------
    ValueError
        As ``log_multivariate_beta`` does for any one row; a RowError
        names the first row whose entries break its rule.
    """
    alpha = _positive_rows(alpha, "log_multivariate_beta", 2)
    return _log_multivariate_beta_terms(_log_gamma_each, _fsum_columns, alpha.T)


def _log_multivariate_beta_terms(lgs, fsum, alpha):
    # ``alpha`` holds one value per component: floats for one vector
    # (lgs = _log_gamma_map, fsum = math.fsum), or columns for a batch of
    # rows (_log_gamma_each, _fsum_columns).  fsum makes the result
    # exactly permutation-invariant.
    *lg_alpha, lg_total = lgs(*alpha, fsum(alpha))
    return fsum(lg_alpha) - lg_total


def log_beta(a: float, b: float) -> float:
    """Return log B(a, b), the log of the Beta function:
    ``log_multivariate_beta((a, b))``."""
    return log_multivariate_beta((a, b))


def rank_one_update_det(diag, u, v):
    """Determinant of ``D + u v^T`` with ``D = diag(diag)``, via the matrix
    determinant lemma: ``(1 + v^T D^{-1} u) * prod(diag)``.  A float for
    one set of vectors (d,); for a stack (..., d), the array of its
    leading shape, each entry equal to the call on its vectors bit for
    bit.

    Linear-domain on purpose: the sign of the determinant matters when
    this is compared against finite-difference Jacobians.

    Parameters
    ----------
    diag : array_like
        Nonzero diagonal entries of D.
    u, v : array_like
        Column vectors of the rank-one update, in the shape of ``diag``.

    Raises
    ------
    ValueError
        On length mismatch, zero diagonal entries, or non-finite or text input.
    """
    d, uu, vv = (_float_array(a, "rank_one_update_det") for a in (diag, u, v))
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("diag must be a non-empty vector")
    if uu.shape != d.shape or vv.shape != d.shape:
        raise ValueError(
            f"length mismatch: diag has {d.size} entries, u has {uu.size}, v has {vv.size}"
        )
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(uu)) and np.all(np.isfinite(vv))):
        raise ValueError("rank_one_update_det requires finite inputs")
    if np.any(d == 0.0):
        raise ValueError("diag entries must be nonzero")
    # vecdot takes each row's dot product as ``@`` does on one vector.
    det = (1.0 + np.vecdot(vv, uu / d)) * np.prod(d, axis=-1)
    return float(det) if d.ndim == 1 else det


def log_sum_exp(values) -> float:
    """Return log(sum_i exp(v_i)) computed shift-stably.

    The maximum element is subtracted before exponentiating, so vectors
    of very negative log-masses do not underflow.  An all ``-inf`` input
    returns ``-inf`` (zero total mass).

    Raises
    ------
    ValueError
        If the input is empty or contains NaN or text.
    """
    return float(log_sum_exp_rows([values])[0])


def log_sum_exp_rows(values) -> np.ndarray:
    """Row-wise ``log_sum_exp`` of an (N, n) array, n >= 1, as an (N,) array.

    A row whose maximum is infinite returns it: ``-inf`` for zero mass,
    ``inf`` for infinite mass.

    Raises
    ------
    ValueError
        If a row is empty or the input contains NaN or text.
    """
    arr = _float_array(values, "log_sum_exp")
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("log_sum_exp requires a non-empty vector")
    lo, hi, finite_sum = _extremes(arr)
    m = np.maximum.reduce(arr, axis=1)  # NaN wherever a row holds one
    if not finite_sum:
        finite = np.isfinite(m)
        if not finite.all():
            if np.isnan(m).any():
                raise ValueError("log_sum_exp input contains NaN")
            m[finite] = log_sum_exp_rows(arr[finite])
            return m
    # No entry lies farther than hi - lo below its row's maximum.
    if hi - lo < math.inf:
        shifted = arr - m[:, None]
    else:
        # A difference past -float max is -inf, whose exp is the 0 it
        # stands for.
        with np.errstate(over="ignore"):
            shifted = arr - m[:, None]
    return m + _log_each(np.add.reduce(np.exp(shifted), axis=1))


def _log_each(values: np.ndarray) -> np.ndarray:
    """Elementwise natural log by ``math.log``.

    ``np.log`` can differ from ``math.log`` in the last ulp, and the
    log-sum-exp and Jacobian values the CLI and the suite print are
    pinned to ``math.log``'s bits.
    """
    return np.fromiter(map(math.log, values.tolist()), float, values.size)
