"""Ratio and log-ratio coordinate maps on the open simplex.

A composition ``x`` (positive entries summing to 1) has two classical
coordinate systems built on the last component as reference:

* the ratio map ``y_i = x_i / x_n`` onto the positive orthant, with
  inverse ``x_i = y_i / z``, ``x_n = 1 / z`` where ``z = 1 + sum(y)``;
* the additive log-ratio map ``y_i = log(x_i / x_n)`` onto R^{n-1},
  with inverse ``x_i = e^{y_i} / k``, ``x_n = 1 / k`` where
  ``k = 1 + sum(exp(y))``.

Both inverses carry closed-form Jacobian determinants (``z^{-n}`` and
``k^{-n} prod(e^{y_i})``), obtained from the matrix determinant lemma
after dropping the redundant n-th simplex coordinate.  All Jacobians
here are therefore for the chart that keeps the first n-1 coordinates,
the chart the verification suite takes its central differences in.

Each map, closed-form Jacobian and validity rule is written once,
row-wise over (N, n) arrays.  The scalar maps apply it to one row;
``composition_rows``, ``ratio_rows``, ``log_ratio_rows`` and the
``*_rows`` maps apply it to a batch, with a RowError naming the first
row that fails.  A value object builds a valid row of Python floats
through a one-row entry with the same bits, and leaves any other row to
its batch rule.  The rules shared with the rest of the library
(real rows, positive rows, RowError) live in ``countcomp._rules``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._rules import (
    _FLOAT,
    RowError,
    _as_count,
    _extremes,
    _float_rows,
    _positive_floats,
    _positive_rows,
    _read_only_array,
    _reject_rows,
    _require,
    _row_entries,
)
from .special import _log_each, _log_exp_sum, _row_sum, log_sum_exp_rows

__all__ = [
    "Composition",
    "RatioVector",
    "LogRatioVector",
    "RowError",
    "composition_rows",
    "ratio_rows",
    "log_ratio_rows",
    "ratio_forward",
    "ratio_inverse",
    "log_ratio_forward",
    "log_ratio_inverse",
    "log_det_jacobian_ratio_inverse",
    "log_det_jacobian_log_ratio_inverse",
    "ratio_forward_rows",
    "ratio_inverse_rows",
    "log_ratio_forward_rows",
    "log_ratio_inverse_rows",
]

# Raw sums farther than this from 1 are contract violations, not float noise.
_SUM_SLACK = 1e-9
# Entries below the smallest normal float are treated as boundary points
# and rejected: the transforms are singular there and the densities live
# on the open simplex.  (The floor sits at the subnormal threshold so the
# shift-stable inverse can still return entries like exp(-700)/2.)
_POSITIVE_FLOOR = sys.float_info.min


def _append_column(rows: np.ndarray, value: float) -> np.ndarray:
    out = np.empty((rows.shape[0], rows.shape[1] + 1))
    out[:, :-1] = rows
    out[:, -1] = value
    return out


def composition_rows(values) -> np.ndarray:
    """Check every row of an (N, n) array as a Composition.

    Returns the rows renormalized, as a new read-only float array.  The
    rules are those of the Composition constructor, which calls this on
    any row its one-row entry does not accept; a RowError names the first
    row that breaks one.
    """
    arr, totals = _checked_compositions(values)
    arr /= totals[:, None]
    arr.setflags(write=False)
    return arr


def _composition_row(entries) -> np.ndarray:
    """One row by the ``composition_rows`` rule, renormalized, as a
    read-only float vector.

    A list of floats, or a 1-D float array, that passes the accept test
    of ``_checked_compositions`` is built here at once; anything else
    goes to ``composition_rows`` on ``[entries]``.  The total has the bits
    of that rule's numpy sum (``_row_sum``), and the entries are divided
    by it only where it is not exactly 1.0, as x / 1.0 is x; the Python
    sum only decides that the entries are finite.
    """
    flat = _row_entries(entries, _FLOAT)
    if (flat is not None and len(flat) >= 2 and min(flat) >= _POSITIVE_FLOOR
            and max(flat) <= 1.0 + _SUM_SLACK and math.isfinite(sum(flat))):
        total = _row_sum(flat)
        if abs(total - 1.0) <= _SUM_SLACK:
            if total != 1.0:
                flat = [v / total for v in flat]
            return _read_only_array(flat)
    return composition_rows([entries])[0]


def _checked_compositions(values) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``values`` as a new float array, checked by the
    Composition rules but not renormalized, and the sum of each row."""
    arr = _float_rows(values, "Composition", 2)
    # The accept test.  A NaN or an infinity makes the sum not finite, and
    # an entry above 1 + slack fails the sum rule, so no row sum here can
    # overflow.
    lo, hi, finite_sum = _extremes(arr)
    if finite_sum and lo >= _POSITIVE_FLOOR and hi <= 1.0 + _SUM_SLACK:
        totals = np.add.reduce(arr, axis=1)
        # total - 1 is exact for totals near 1, so this is |total - 1| <= slack.
        lo, hi, _ = _extremes(totals)
        if -_SUM_SLACK <= lo - 1.0 and hi - 1.0 <= _SUM_SLACK:
            return arr, totals
    # Clipping at 0 changes no row that passes the rules before the sum
    # rule, and keeps +inf and -inf from meeting (and warning) in a sum.
    with np.errstate(over="ignore"):
        totals = np.maximum(arr, 0.0).sum(axis=1)
    _reject_rows(
        (~np.isfinite(arr).all(axis=1), "Composition entries must be finite"),
        (
            (arr < _POSITIVE_FLOOR).any(axis=1),
            "Composition entries must be strictly positive normal floats; "
            "boundary points are rejected rather than clamped",
        ),
        (
            np.abs(totals - 1.0) > _SUM_SLACK,
            lambda row: f"Composition entries sum to {float(totals[row])!r}, "
            "more than 1e-9 away from 1",
        ),
    )
    return arr, totals


def ratio_rows(values) -> tuple[np.ndarray, np.ndarray]:
    """Check every row of an (N, n-1) array as a RatioVector.

    Returns the rows as a new read-only float array and ``z = 1 + sum``
    of each row.  A RowError names the first row that fails.
    """
    arr = _positive_rows(values, "RatioVector", 1)
    return arr, 1.0 + np.add.reduce(arr, axis=1)


def log_ratio_rows(values) -> tuple[np.ndarray, np.ndarray]:
    """Check every row of an (N, n-1) array as a LogRatioVector.

    Returns the rows as a new read-only float array and ``log k`` of each
    row, ``k = 1 + sum(exp(row))``, computed shift-stably.  A RowError
    names the first row that fails.
    """
    arr = _float_rows(values, "LogRatioVector", 1)
    # The accept test.  A NaN or an infinity makes the sum not finite; so
    # can finite entries, which the mask then passes.
    if not _extremes(arr)[2]:
        _reject_rows((~np.isfinite(arr).all(axis=1), "LogRatioVector entries must be finite"))
    arr.setflags(write=False)
    return arr, log_sum_exp_rows(_append_column(arr, 0.0))


def _log_ratio_row(entries) -> tuple[np.ndarray, float]:
    """One row by the ``log_ratio_rows`` rule, as a read-only float vector,
    and its ``log k``.

    A list of floats, or a 1-D float array, whose Python sum is finite is
    built here at once; anything else goes to ``log_ratio_rows`` on
    ``[entries]``.  ``log k`` is taken on the row with the reference 0
    appended, by the shift-exp-sum of ``log_sum_exp_rows``, with the same
    bits.
    """
    flat = _row_entries(entries, _FLOAT)
    if flat and math.isfinite(sum(flat)):
        row = flat + [0.0]
        padded = np.array(row)
        padded.setflags(write=False)
        hi = max(row)
        return padded[:-1], hi + _log_exp_sum(padded, hi, hi - min(row), math.log)
    rows, log_k = log_ratio_rows([entries])
    return rows[0], float(log_k[0])


class _ValueObject:
    """Frozen value objects: equality, hashing and a repr by the public
    field names in ``_fields``.

    Arrays compare by ``np.array_equal`` and hash by their entries as
    Python numbers (0.0 and -0.0 hash alike), so equal objects hash
    alike.  The repr is ``Name(field=value, ...)``, each value by its own
    repr.  Assigning or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``; a constructor, or a value kept on
    first use, sets it with ``object.__setattr__``: reading
    ``self.__dict__`` would make CPython build the instance dict, after
    which every attribute read is slower.  Subclasses keep a ``__dict__``,
    so ``pickle`` and ``copy`` restore them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self):
        return hash(tuple(
            tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in self._values()
        ))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]


def _frozen(message: str) -> Exception:
    # Here, so that importing the library loads no dataclasses.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Composition(_ValueObject):
    """A point on the open simplex: positive entries summing to 1.

    The constructor renormalizes away accumulated float error (raw sums
    within 1e-9 of 1) and rejects anything worse, as well as effectively
    zero entries (zero or subnormal), where the maps below are singular.
    """

    _fields = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", _composition_row(entries))

    @property
    def n(self) -> int:
        return self.entries.size


class RatioVector(_ValueObject):
    """Image of a composition under the ratio map: n-1 positive entries
    ``y_i = x_i / x_n``, with ``z = 1 + sum(y)`` cached."""

    _fields = ("entries", "z")

    def __init__(self, entries):
        row = _positive_floats(entries, "RatioVector", 1)
        object.__setattr__(self, "entries", _read_only_array(row))
        object.__setattr__(self, "z", 1.0 + _row_sum(row))

    @property
    def n(self) -> int:
        """Dimension of the underlying composition (one more than len(entries))."""
        return self.entries.size + 1


class LogRatioVector(_ValueObject):
    """Image of a composition under the log-ratio map: n-1 real entries
    ``y_i = log(x_i / x_n)``.

    ``k = 1 + sum(exp(y))`` is cached through its log, computed
    shift-stably, so extreme entries (e.g. y = 700) do not overflow the
    quantities the densities actually need.
    """

    _fields = ("entries", "log_k")

    def __init__(self, entries):
        entries, log_k = _log_ratio_row(entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "log_k", log_k)

    @property
    def k(self) -> float:
        """1 + sum(exp(entries)); inf where log k passes the log of the
        largest float."""
        try:
            return math.exp(self.log_k)
        except OverflowError:
            return math.inf

    @property
    def n(self) -> int:
        return self.entries.size + 1


# ---------------------------------------------------------------------------
# The maps and their log-Jacobians, row-wise over (N, .) arrays.  The
# scalar functions pass one row; the *_rows functions pass a batch.
# ---------------------------------------------------------------------------


def _ratios(x: np.ndarray) -> np.ndarray:
    return x[:, :-1] / x[:, -1:]


def _from_ratios(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return _append_column(y, 1.0) / z[:, None]


def _log_ratios(x: np.ndarray) -> np.ndarray:
    logs = np.log(x)
    return logs[:, :-1] - logs[:, -1:]


def _from_log_ratios(y: np.ndarray) -> np.ndarray:
    shift = np.maximum(y.max(axis=1), 0.0)
    # A difference past -float max is -inf, whose exp is the 0 that the
    # Composition rule then refuses.
    with np.errstate(over="ignore"):
        w = np.exp(_append_column(y, 0.0) - shift[:, None])
    return w / w.sum(axis=1, keepdims=True)


def _ratio_log_det(z: np.ndarray, n: int) -> np.ndarray:
    return -n * _log_each(z)


def _log_ratio_log_det(y: np.ndarray, log_k: np.ndarray) -> np.ndarray:
    """``sum(y) - n log k`` for each row, kept wherever it is finite.
    Where sum(y) or n log k overflowed, though the log-det may not, it is
    taken at half scale, as ``2 (sum_i (y_i / 2 - log k / 2) - log k / 2)``.
    The half differences lie in [-FLOAT_MAX, 0] (log k >= max(y)), so a
    partial sum or the doubling overflows only where the log-det is below
    -FLOAT_MAX."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = y.sum(axis=1) - (y.shape[1] + 1) * log_k
        if np.isfinite(out).all():
            return out
        half_k = 0.5 * log_k
        half = np.add.reduce(0.5 * y - half_k[:, None], axis=1) - half_k
        return np.where(np.isfinite(out), out, 2.0 * half)


def ratio_forward(x: Composition) -> RatioVector:
    """Map a composition to its ratio coordinates y_i = x_i / x_n."""
    return RatioVector(_ratios(_require(x, Composition, "x").entries[None])[0])


def ratio_inverse(y: RatioVector) -> Composition:
    """Map ratio coordinates back to the simplex: x_i = y_i / z, x_n = 1 / z."""
    _require(y, RatioVector, "y")
    return Composition(_from_ratios(y.entries[None], np.array([y.z]))[0])


def log_ratio_forward(x: Composition) -> LogRatioVector:
    """Map a composition to additive log-ratio coordinates log(x_i / x_n)."""
    return LogRatioVector(_log_ratios(_require(x, Composition, "x").entries[None])[0])


def log_ratio_inverse(y: LogRatioVector) -> Composition:
    """Map log-ratio coordinates back to the simplex.

    Softmax with an implicit zero for the reference coordinate, computed
    shift-stably: max(0, max(y)) is subtracted before exponentiating, so
    large entries do not overflow.
    """
    return Composition(_from_log_ratios(_require(y, LogRatioVector, "y").entries[None])[0])


def log_det_jacobian_ratio_inverse(y: RatioVector, n: int) -> float:
    """log |det J| of the ratio inverse map into the first n-1 simplex
    coordinates; the closed form is ``-n * log(z)``."""
    _require(y, RatioVector, "y")
    n = _as_count(n, "n")
    if n != y.n:
        raise ValueError(f"expected {n - 1} ratio entries for n={n}, got {y.entries.size}")
    return float(_ratio_log_det(np.array([y.z]), n)[0])


def log_det_jacobian_log_ratio_inverse(y: LogRatioVector, n: int) -> float:
    """log |det J| of the log-ratio inverse map into the first n-1 simplex
    coordinates; the closed form is ``sum(y) - n * log(k)``."""
    _require(y, LogRatioVector, "y")
    n = _as_count(n, "n")
    if n != y.n:
        raise ValueError(f"expected {n - 1} log-ratio entries for n={n}, got {y.entries.size}")
    return float(_log_ratio_log_det(y.entries[None], np.array([y.log_k]))[0])


def ratio_forward_rows(x) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``ratio_forward``: for each row of an (N, n) array,
    checked as a composition, its ratio coordinates and the log |det J|
    of the ratio inverse there.  Returns an (N, n-1) and an (N,) array;
    a RowError names the first row that fails a check."""
    x = composition_rows(x)
    y, z = ratio_rows(_ratios(x))
    return y, _ratio_log_det(z, x.shape[1])


def ratio_inverse_rows(y) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``ratio_inverse``: for each row of an (N, n-1) array
    of ratio coordinates, its composition and the log |det J| of the
    ratio inverse there.  The checks on the inputs run before those on
    the outputs, each naming the first row that fails."""
    y, z = ratio_rows(y)
    return composition_rows(_from_ratios(y, z)), _ratio_log_det(z, y.shape[1] + 1)


def log_ratio_forward_rows(x) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``log_ratio_forward``: for each row of an (N, n)
    array, checked as a composition, its log-ratio coordinates and the
    log |det J| of the log-ratio inverse there."""
    y, log_k = log_ratio_rows(_log_ratios(composition_rows(x)))
    return y, _log_ratio_log_det(y, log_k)


def log_ratio_inverse_rows(y) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of ``log_ratio_inverse``: for each row of an (N, n-1)
    array of log-ratio coordinates, its composition and the log |det J|
    of the log-ratio inverse there.  The checks on the inputs run before
    those on the outputs, each naming the first row that fails."""
    y, log_k = log_ratio_rows(y)
    return composition_rows(_from_log_ratios(y)), _log_ratio_log_det(y, log_k)
