"""Log-domain special functions.

Every density and mass function in this library is evaluated in log
domain: a plain ``float`` carries the log of a positive quantity, with
``-inf`` as the unique representation of zero mass.  Linear-domain
values are obtained by exponentiating, never computed directly, because
the Gamma-function ratios in the count distributions overflow float64
for totals beyond ~170.

Arguments are read by the rules of ``countcomp._rules``.  The public
entries check their arguments where they enter; the private log-gamma
forms (``_log_gamma_map``, ``_log_gamma_each``, ``_log_gamma_distinct``)
take values so checked, only map ``math.lgamma`` and raise on overflow.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from ._rules import _extremes, _float_array, _positive_float, _positive_floats, _positive_rows

__all__ = [
    "log_gamma",
    "log_multivariate_beta",
    "log_multivariate_beta_rows",
    "log_beta",
    "log_sum_exp",
    "log_sum_exp_rows",
]


def log_gamma(a: float) -> float:
    """Return log Gamma(a) for a > 0.

    Computed by CPython's ``math.lgamma``.  Against 50-digit mpmath the
    worst mixed relative error measures at 1.3e-15 over [1e-6, 1e18],
    near 1 and 2 and at the integers 1..3000; it agrees to the last bit
    at the subnormal arguments tested; log Gamma(1) and log Gamma(2) are
    exactly 0.0.

    Parameters
    ----------
    a : float
        Strictly positive, finite argument.

    Raises
    ------
    ValueError
        If ``a`` is not a strictly positive finite number, or its log
        Gamma overflows float64 (past about 2.56e305).
    """
    a = _positive_float(a, "log_gamma argument")
    try:
        return math.lgamma(a)
    except OverflowError:
        raise ValueError(f"log_gamma({a!r}) overflows float64") from None


def _log_gamma_each(*args) -> list[np.ndarray]:
    """``math.lgamma`` of every entry of each argument, in one batch.

    Each argument is a float or a float array; one float array comes
    back per argument, in its shape, equal to the scalar ``log_gamma``
    bit for bit.

    Raises
    ------
    ValueError
        If a log Gamma overflows float64 (past about 2.56e305), naming
        the largest argument.
    """
    parts = [np.asarray(a, dtype=float) for a in args]
    try:
        return [np.fromiter(map(math.lgamma, part.ravel().tolist()), float, part.size)
                .reshape(part.shape) for part in parts]
    except OverflowError:
        largest = max(float(part.max()) for part in parts if part.size)
        raise ValueError(f"log_gamma({largest!r}) overflows float64") from None


def _log_gamma_distinct(*args) -> list[np.ndarray]:
    """``_log_gamma_each`` with ``math.lgamma`` once per distinct entry.

    The form for the batches over many count points: they repeat a few
    totals and counts over many rows, and sorting out the repeats costs
    about 35 ns an entry against about 140 ns for one ``math.lgamma``.
    Concentrations, and the multiples of one value, seldom repeat; the
    density batches and the one-point forms take ``_log_gamma_each``.
    """
    parts = [np.asarray(a, dtype=float) for a in args]
    distinct, where = np.unique(np.concatenate([part.ravel() for part in parts]),
                                return_inverse=True)
    (out,) = _log_gamma_each(distinct)
    ends = np.cumsum([part.size for part in parts])
    return [piece.reshape(part.shape)
            for piece, part in zip(np.split(out[where], ends[:-1]), parts)]


def _log_gamma_map(*args) -> list[float]:
    """``math.lgamma`` of each argument, as a list: the one-point twin of
    ``_log_gamma_each``, with no batch cost, raising on overflow as it
    does."""
    try:
        return list(map(math.lgamma, args))
    except OverflowError:
        raise ValueError(f"log_gamma({max(args)!r}) overflows float64") from None


def _fsum_columns(columns) -> np.ndarray:
    """``math.fsum`` across equal-length columns, row by row: the batch
    twin of ``math.fsum`` over one value per component."""
    rows = np.column_stack(columns)
    return np.fromiter(map(math.fsum, rows.tolist()), float, rows.shape[0])


def _row_sum(values):
    """The sum of a row, added left to right from 0.0 (so -0.0 + -0.0 is
    0.0): one value per component, as Python floats for one point or as
    columns over the rows of a batch, so a point and its batch row agree
    bit for bit.  Builtin ``sum`` would not do: from Python 3.12 on it
    compensates a sum of floats but not one of arrays."""
    return functools.reduce(operator.add, values, 0.0)


def _dot(weights, values):
    """sum_i w_i v_i, the ``_row_sum`` of the products, as floats or as
    columns.  Past the float range a product or sum is -inf or inf, as in
    float arithmetic; numpy would warn of that overflow on columns."""
    if isinstance(values[0], np.ndarray):
        with np.errstate(over="ignore"):
            return _row_sum(map(operator.mul, weights, values))
    return _row_sum(map(operator.mul, weights, values))


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
    alpha = _positive_floats(alpha, "log_multivariate_beta", 2)
    return _log_multivariate_beta_terms(_log_gamma_map, math.fsum, alpha)


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
    return m + _log_exp_sum(arr, m[:, None], hi - lo, _log_each)


def _log_exp_sum(arr: np.ndarray, shift, spread: float, log):
    """``log(sum(exp(arr - shift)))`` along the last axis: the shift-exp-sum
    of every log-sum-exp, written once.  ``arr`` is an (N, n) batch with
    its row maxima as an (N, 1) ``shift`` and ``log`` = ``_log_each``, or
    one row as a 1-D array with its maximum as a float and ``math.log``
    (the one-point forms, which scan their row as Python numbers); both
    give each row the same bits.  No entry lies farther than ``spread``
    (which may be inf) below its shift.
    """
    if spread < math.inf:
        shifted = arr - shift
    else:
        # A difference past -float max is -inf, whose exp is the 0 it
        # stands for.
        with np.errstate(over="ignore"):
            shifted = arr - shift
    return log(np.add.reduce(np.exp(shifted), -1))


# The log-sum-exp and Jacobian values the CLI and the suite print are
# pinned to math.log's bits.
def _log_each(values: np.ndarray) -> np.ndarray:
    return _math_each(math.log, values)


def _math_each(fn, values: np.ndarray) -> np.ndarray:
    """A ``math`` function of every entry of ``values``, in its shape: the
    batch twin of ``fn`` on one float, with its bits (numpy's own ``log``,
    ``log1p`` and ``exp`` can differ from ``math``'s in the last ulp)."""
    # A memoryview hands fn the entries as Python floats one by one, with no
    # list of them all (2 MB at 64,000 entries).
    out = np.fromiter(map(fn, memoryview(values.ravel())), float, values.size)
    return out.reshape(values.shape)
