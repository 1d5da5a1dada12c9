"""The argument rules shared across the library.  Each reads one kind of
argument (a real, a positive real, a count, a float array, or rows of
them) and returns it as the formulas take it, or raises ValueError whose
message starts with the argument's name; a batch rule raises a RowError
naming the first bad row.  Only real numbers are numbers here: text and
bools are not, as the CLI refuses JSON strings and booleans, and nor
are complex numbers, dates and times.  An argument that must be a value
object (a Composition, a CountVector, a DirichletParams, ...) is never
built from its entries: anything else is refused by a TypeError.
"""

from __future__ import annotations

import math
import sys
from numbers import Real

import numpy as np

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
    Python numbers: the accept test of the row validators, by numpy
    reductions.  (The one-row entries scan their Python numbers with
    builtins before any array is made.)

    ``finite_sum`` says whether the sum of all the entries is finite, so
    it is false where one is NaN or infinite; the extremes are NaN then
    if an entry is.  An empty array gives ``(inf, -inf, True)``.  The
    sum is taken only where the extremes allow it to overflow, and
    reaches no output.
    """
    if not arr.size:
        return math.inf, -math.inf, True
    lo, hi = arr.min().item(), arr.max().item()  # NaN in both if in one
    if max(-lo, hi) * arr.size < _SUM_SAFE:
        return lo, hi, True
    with np.errstate(over="ignore", invalid="ignore"):
        return lo, hi, bool(np.isfinite(arr.sum()))


def _non_real_row(arr: np.ndarray, values=None) -> int | None:
    """The index of the first row of a 2-D array that holds an entry that
    is not a real number, or None; ``values`` is what the array was made
    from.

    An array whose dtype is not integer, float or object is refused
    throughout; only an object array has its entries scanned, so numeric
    arrays pay one dtype test, except that one made from a list has its
    rows scanned for bools (``_bool_row``).  float() parses text, and a
    bool is an int; neither is a real number here.
    """
    if arr.dtype.kind == "O":
        for row, entries in enumerate(arr.tolist()):
            if any(type(v) is bool or not isinstance(v, Real) for v in entries):
                return row
        return None
    if arr.dtype.kind not in "iuf":
        return 0
    return _bool_row(values) if type(values) is list else None


_BOOL_TYPES = frozenset((bool, np.bool_))


def _bool_row(values: list) -> int | None:
    """The index of the first entry of a list that is a bool, Python's or
    numpy's, or a row that holds one, or None.

    numpy reads a list that mixes bools with numbers as numbers, so only
    the list still shows them; a numeric array cannot hold a bool.
    """
    for row, entries in enumerate(values):
        if isinstance(entries, np.ndarray):
            entries = entries.ravel().tolist() if entries.dtype.kind == "b" else ()
        elif not isinstance(entries, (list, tuple)):
            entries = (entries,)
        if not _BOOL_TYPES.isdisjoint(map(type, entries)):
            return row
    return None


def _object_floats(arr: np.ndarray, what: str) -> np.ndarray:
    """A 2-D object array of real numbers as a new float array, converted
    as a list of its entries would be; a RowError names the first row
    with an entry past the float64 range."""
    rows = arr.tolist()
    try:
        return np.array(rows, dtype=float)
    except OverflowError:  # an int or a Fraction past the largest float
        for row, entries in enumerate(rows):
            try:
                np.array(entries, dtype=float)
            except OverflowError:
                raise RowError(row, f"{what} entries must lie within the float64 range") from None
        raise


def _as_float(value, what: str) -> float:
    """``value`` as a float; anything but a real number within the
    float64 range is refused: a sequence or an array of one or more
    dimensions by a TypeError, any other value by a ValueError."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged sequence
            arr = None
        if arr is None or arr.ndim:
            raise TypeError(f"{what} must be a real number (float), not {type(value).__name__}")
        if _non_real_row(arr.reshape(1, 1)) is not None:
            raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past the largest float
        raise ValueError(f"{what} must be a real number within the float64 range") from None


def _positive_float(value, what: str) -> float:
    """``value`` as a float by ``_as_float``, which must be finite and > 0."""
    x = _as_float(value, what)
    if not 0.0 < x < math.inf:  # NaN fails too
        raise ValueError(f"{what} must be a finite number > 0, got {x!r}")
    return x


def _require(value, cls: type, what: str):
    """``value``, which must be an instance of the value-object class
    ``cls``; anything else, the entries it would be built from included,
    is refused by a TypeError that names ``what`` and the class."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def _as_count(value, what: str) -> int:
    """One count by the CountVector rule: a non-negative integer below
    2**63, not a bool."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a non-negative integer, got {_shown(value)}") from exc
    if i != value or i < 0 or type(value) in (bool, np.bool_):
        raise ValueError(f"{what} must be a non-negative integer, got {_shown(value)}")
    if i >= 2**63:
        raise ValueError(f"{what} must be below 2**63 (int64), got {_shown(value)}")
    return i


def _shown(value) -> str:
    """``repr(value)``, or for a number too long for Python to print (an
    int past ``sys.get_int_max_str_digits()``, or a Fraction of one), its
    sign and the number of digits of its integer part."""
    try:
        return repr(value)
    except ValueError:
        i = int(value)
        size = abs(i)
        digits = int(math.log10(size)) + 1  # may be one off near a power of 10
        digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
        if type(value) is int:
            return f"{'a negative' if i < 0 else 'an'} integer of {digits} digits"
        sign = "negative " if i < 0 else ""
        return f"a {sign}{type(value).__name__} of {digits} digits before the point"


_FLOAT = frozenset((float,))
_INT = frozenset((int,))


def _row_entries(entries, types: frozenset) -> list | None:
    """The entries of one row as a list of Python numbers whose types are
    all in ``types``, when given as a list or as a 1-D array read through
    ``tolist()``; None for anything else.

    This is the scan of a one-row rule (``_positive_row``, ``_count_row``
    and those of ``simplex``): it accepts the common case on builtins and
    leaves everything else, every refusal included, to the batch rule on
    ``[entries]``.
    """
    if type(entries) is np.ndarray:
        if entries.ndim != 1:
            return None
        entries = entries.tolist()
    elif type(entries) is not list:
        return None
    return entries if types.issuperset(map(type, entries)) else None


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; entries are read as by ``_as_float``."""
    arr = np.asarray(values)
    flat = arr.reshape(1, -1)
    if _non_real_row(flat, values) is not None:
        raise ValueError(f"{what} entries must be real numbers")
    if arr.dtype.kind in "iuf":
        return arr.astype(float, copy=False)
    return _object_floats(flat, what).reshape(arr.shape)


def _float_rows(values, what: str, min_len: int) -> np.ndarray:
    """``values`` as a new (N, n) float array with n >= min_len.

    A value object passes ``[entries]``, so an entries argument that is
    not a vector has the wrong number of dimensions here.  Entries are
    read as by ``_as_float``, naming the first row with a refused one,
    before any rule on the values.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < min_len:
        raise RowError(0, f"{what} requires a vector of length >= {min_len}")
    row = _non_real_row(arr, values)
    if row is not None:
        raise RowError(row, f"{what} entries must be real numbers")
    if arr.dtype.kind in "iuf":
        return arr.astype(float, copy=type(values) is not list)  # a list made a new array
    return _object_floats(arr, what)


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


def _positive_row(entries, what: str, min_len: int) -> np.ndarray:
    """One row by the ``_positive_rows`` rule, as a read-only float vector.

    A list of floats, or a 1-D float array, that passes the accept test
    is built here at once; anything else goes to ``_positive_rows`` on
    ``[entries]``.  The Python sum only decides that the entries are
    finite: below ``_SUM_SAFE`` neither it nor a numpy sum can overflow.
    """
    flat = _row_entries(entries, _FLOAT)
    if (flat is not None and len(flat) >= min_len and min(flat) > 0.0
            and max(flat) * len(flat) < _SUM_SAFE and math.isfinite(sum(flat))):
        arr = np.array(flat)
        arr.setflags(write=False)
        return arr
    return _positive_rows([entries], what, min_len)[0]


def _count_row(entries, what: str) -> tuple[np.ndarray, int]:
    """One row by the ``_count_rows`` rule, as a read-only int64 vector,
    and its exact total as a Python int.

    A list of ints (not bools), or a 1-D integer array, that passes the
    accept test is built here at once; anything else goes to
    ``_count_rows`` on ``[entries]``.
    """
    flat = _row_entries(entries, _INT)
    if flat and min(flat) >= 0 and max(flat) < 2**63:
        ints = np.array(flat, dtype=np.int64)
        ints.setflags(write=False)
    else:
        ints = _count_rows([entries], what)[0]
        flat = ints.tolist()
    # A Python sum: the exact total, where an int64 sum could wrap.
    return ints, sum(flat)


def _count_rows(values, what: str) -> np.ndarray:
    """``count_rows``, with ``what`` naming the entries in a RowError."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise RowError(0, f"{what} requires a vector of length >= 1")
    row = _non_real_row(arr, values)
    if row is not None:  # numeric text and bools would pass the cast to float
        raise RowError(row, f"{what} entries must be integers")
    integer = arr.dtype.kind in "iu"
    if not integer:
        arr = _object_floats(arr, what) if arr.dtype.kind == "O" else arr.astype(float)
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
