"""The argument rules shared across the library.  Each reads one kind of
argument (a real, a positive real, a count, a float array, or rows of
them) and returns it as the formulas take it, or raises ValueError whose
message starts with the argument's name; a batch rule raises a RowError
naming the first bad row.  Text and bools are not numbers here, as the
CLI refuses JSON strings and booleans.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Arrays of at most this many entries are scanned by Python builtins over
# ``tolist()``, which for a few entries costs less than one numpy
# reduction; larger ones by whole-array reductions, whose cost grows far
# more slowly with the size.
_PYTHON_SCAN_MAX = 64
# While size * max |entry| stays below this, no partial sum of the entries
# can round past the largest float.
_SUM_SAFE = sys.float_info.max / 2


class RowError(ValueError):
    """A ValueError about one row of a batch; ``row`` is its 0-based index.

    The message is the one a single value object raises for that row, so
    a caller that numbers rows its own way (input lines, draws) can add
    the prefix it needs.
    """

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _reject_rows(*rules) -> None:
    """Raise a RowError for the first row that breaks a rule.

    Each rule is a ``(bad, message)`` pair: a boolean mask over the rows
    and the message, or a function of the row index that builds it.
    Rules come in the order one row is checked in, so a row that breaks
    several of them is reported with the first.
    """
    bad = rules[0][0]
    for mask, _ in rules[1:]:
        bad = bad | mask
    rows = bad.nonzero()[0]
    if rows.size:
        row = int(rows[0])
        message = next(message for mask, message in rules if mask[row])
        raise RowError(row, message(row) if callable(message) else message)


def _extremes(arr: np.ndarray) -> tuple[float, float, bool]:
    """``(least, greatest, finite_sum)`` over all entries of ``arr``, as
    Python numbers: the accept test of the row validators.

    ``finite_sum`` says whether the sum of all the entries is finite, so
    it is false where one is NaN or infinite; the extremes mean nothing
    then (a Python ``min`` skips a NaN that is not first).  An empty
    array gives ``(inf, -inf, True)``.  Small arrays take Python
    builtins, large ones numpy reductions; both reach the same decision,
    except that a Python and a numpy sum can round differently within a
    few ulps of float64 overflow.  No sum here reaches an output.
    """
    if arr.size <= _PYTHON_SCAN_MAX:
        flat = arr.ravel().tolist()
        if not flat:
            return math.inf, -math.inf, True
        return min(flat), max(flat), math.isfinite(sum(flat))
    lo, hi = arr.min().item(), arr.max().item()  # NaN in both if in one
    if max(-lo, hi) * arr.size < _SUM_SAFE:
        return lo, hi, True
    with np.errstate(over="ignore", invalid="ignore"):
        return lo, hi, bool(np.isfinite(arr.sum()))


# float() parses text, and a bool is an int; the rules refuse both.
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)


def _text_row(arr: np.ndarray) -> int | None:
    """The index of the first row of a 2-D array that holds text or a
    bool, or None.

    A text or bool dtype is refused throughout; only an object array has
    its entries scanned, so numeric arrays pay one dtype test.
    """
    if arr.dtype.kind in "SUb":
        return 0
    if arr.dtype.kind == "O":
        for row, entries in enumerate(arr.tolist()):
            if any(isinstance(v, _NOT_NUMBERS) for v in entries):
                return row
    return None


def _as_float(value, what: str) -> float:
    """``value`` as a float; text and bools are refused."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or (
            not isinstance(value, (int, float))
            and _text_row(np.asarray(value).reshape(1, -1)) is not None):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _positive_float(value, what: str) -> float:
    """``value`` as a float by ``_as_float``, which must be finite and > 0."""
    x = _as_float(value, what)
    if not 0.0 < x < math.inf:  # NaN fails too
        raise ValueError(f"{what} must be a finite number > 0, got {x!r}")
    return x


def _as_count(value, what: str) -> int:
    """One count by the CountVector rule: a non-negative integer below
    2**63, not a bool."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}") from exc
    if i != value or i < 0 or type(value) in _NOT_NUMBERS:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    if i >= 2**63:
        raise ValueError(f"{what} must be below 2**63 (int64), got {value!r}")
    return i


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; text and bools are refused, as by
    ``_as_float``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" and _text_row(arr.reshape(1, -1)) is not None:
        raise ValueError(f"{what} entries must be real numbers")
    return arr.astype(float, copy=False)


def _float_rows(values, what: str, min_len: int) -> np.ndarray:
    """``values`` as a new (N, n) float array with n >= min_len.

    A value object passes ``[entries]``, so an entries argument that is
    not a vector has the wrong number of dimensions here.  Text and bools
    are refused, naming the first row with one, before any rule on the
    values.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < min_len:
        raise RowError(0, f"{what} requires a vector of length >= {min_len}")
    if arr.dtype.kind in "iuf":
        return arr.astype(float, copy=type(values) is not list)  # a list made a new array
    row = _text_row(arr)
    if row is not None:
        raise RowError(row, f"{what} entries must be real numbers")
    return np.array(arr.tolist(), dtype=float)  # as a list of these entries would convert


def _positive_rows(values, what: str, min_len: int) -> np.ndarray:
    """Check every row of an (N, n) array, n >= min_len, for positive
    finite entries whose numpy sum and ``math.fsum`` (either can overflow
    alone) are finite; return the rows as a new read-only float array.
    A RowError names the first bad row."""
    arr = _float_rows(values, what, min_len)
    lo, hi, finite_sum = _extremes(arr)
    # Below _SUM_SAFE no row can sum near the largest float.
    if not (finite_sum and lo > 0.0 and hi * arr.shape[1] < _SUM_SAFE):
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = ~np.isfinite(arr.sum(axis=1))
        bad = ~(np.isfinite(arr) & (arr > 0.0)).all(axis=1)
        for row in np.flatnonzero(~(bad | overflows)).tolist():
            try:
                math.fsum(arr[row].tolist())
            except OverflowError:
                overflows[row] = True
        _reject_rows(
            (bad, f"{what} entries must be strictly positive and finite"),
            (overflows, f"{what}: the sum of the entries overflows float64"),
        )
    arr.setflags(write=False)
    return arr


def _count_rows(values, what: str) -> np.ndarray:
    """``count_rows``, with ``what`` naming the entries in a RowError."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise RowError(0, f"{what} requires a vector of length >= 1")
    integer = arr.dtype.kind in "iu"
    if not integer:
        row = _text_row(arr)
        if row is not None:  # numeric text and bools would pass the cast to float
            raise RowError(row, f"{what} entries must be integers")
        arr = arr.astype(float)
    # The accept test; a NaN or an infinity makes the sum not finite.  In
    # [0, 2**63) the cast to int64 keeps an integral float and changes any
    # other.
    lo, hi, finite_sum = _extremes(arr)
    in_range = finite_sum and lo >= 0 and hi < 2**63
    # A list made a new array, which needs no copy.
    ints = arr.astype(np.int64, copy=type(values) is not list) if in_range else None
    if not (in_range and (integer or (ints == arr).all())):
        if integer:
            non_integer = np.zeros(arr.shape[0], dtype=bool)
        else:
            non_integer = ~(np.isfinite(arr) & (arr == np.floor(arr))).all(axis=1)
        _reject_rows(
            (non_integer, f"{what} entries must be integers"),
            ((arr < 0).any(axis=1), f"{what} entries must be non-negative"),
            ((arr >= 2**63).any(axis=1), f"{what} entries must be below 2**63 (int64)"),
        )
    ints.setflags(write=False)
    return ints
