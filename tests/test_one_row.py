"""The one-row rules against the batch rules they stand in for.

A value object reads a list of Python numbers, or a 1-D array, through a
one-row rule that builds the common case at once and hands everything
else to the batch rule on ``[entries]``.  For any entries, the object
must equal what the batch rule makes of them as a (1, n) row, bit for
bit in every field, or both must raise the same exception class with the
same message.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countcomp._rules import _positive_rows
from countcomp.distributions import (
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    _as_shapes,
    count_rows,
)
from countcomp.simplex import (
    Composition,
    LogRatioVector,
    RatioVector,
    composition_rows,
    log_ratio_rows,
    ratio_rows,
)

TINY = 5e-324  # the smallest subnormal
FLOAT_MAX = sys.float_info.max


def _sum_edge(side: float, inside: bool) -> float:
    """The last double t on one side of 1 with |t - 1| <= 1e-9 (inside),
    or the first one past it."""
    t = 1.0 + side * 1e-9
    while abs(t - 1.0) > 1e-9:
        t = math.nextafter(t, 1.0)
    while abs(math.nextafter(t, side * 2.0) - 1.0) <= 1e-9:
        t = math.nextafter(t, side * 2.0)
    return t if inside else math.nextafter(t, side * 2.0)


def _fields_of(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def _ratio(rows):
    y, z = ratio_rows(rows)
    return {"entries": y[0], "z": float(z[0])}


def _log_ratio(rows):
    y, log_k = log_ratio_rows(rows)
    return {"entries": y[0], "log_k": float(log_k[0])}


def _counts(rows):
    ints = count_rows(rows)[0]
    return {"counts": ints, "total": sum(ints.tolist())}


# name: (entries -> the object's fields, rows -> the batch rule's fields)
TARGETS = {
    "Composition": (lambda e: _fields_of(Composition(e)),
                    lambda rows: {"entries": composition_rows(rows)[0]}),
    "RatioVector": (lambda e: _fields_of(RatioVector(e)), _ratio),
    "LogRatioVector": (lambda e: _fields_of(LogRatioVector(e)), _log_ratio),
    "CountVector": (lambda e: _fields_of(CountVector(e)), _counts),
    "DirichletParams": (lambda e: _fields_of(DirichletParams(e)),
                        lambda rows: {"alpha": _positive_rows(rows, "DirichletParams", 2)[0]}),
    "GammaMixtureParams": (
        lambda e: _fields_of(GammaMixtureParams(e, 1.5)),
        lambda rows: {"shapes": _positive_rows(rows, "GammaMixtureParams shapes", 1)[0],
                      "scale": 1.5}),
    "_as_shapes": (lambda e: {"shapes": _as_shapes(e)},
                   lambda rows: {"shapes": _positive_rows(rows, "shape vector", 1)[0]}),
}


def _outcome(make, argument):
    try:
        return make(argument)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes()
                and not a.flags.writeable and not b.flags.writeable)
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


SPECIAL = st.sampled_from([
    0.0, -0.0, TINY, sys.float_info.min, FLOAT_MAX, math.nan, math.inf, -math.inf,
    2**63 - 1, 2**63, 10**400, -1, True, False, np.True_, np.float64(0.5), np.int64(3),
    np.float32(0.25),
])
ENTRY = st.one_of(st.floats(), st.floats(1e-3, 1e3), st.integers(-3, 2**64), SPECIAL)


@st.composite
def _near_simplex(draw):
    """Positive floats scaled to sum to about 1, the factor straddling the
    1e-9 slack of the Composition sum rule."""
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=10))
    factor = draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1.01e-9, 1.0 - 1.01e-9]))
    total = sum(weights)
    return [w / total * factor for w in weights]


ENTRIES = st.one_of(st.lists(ENTRY, max_size=10), _near_simplex(),
                    st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=10))


@pytest.mark.parametrize("target", TARGETS)
@given(entries=ENTRIES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(entries=[TINY, 1.0])
@example(entries=[0.5, 0.5 - TINY, TINY])
@example(entries=[FLOAT_MAX])
@example(entries=[FLOAT_MAX, 1.0])
@example(entries=[FLOAT_MAX, FLOAT_MAX])  # finite entries whose sum overflows
@example(entries=[FLOAT_MAX / 2, 2.0**1023])
@example(entries=[0.5, _sum_edge(1.0, True) - 0.5])
@example(entries=[0.5, _sum_edge(-1.0, True) - 0.5])
@example(entries=[0.5, _sum_edge(1.0, False) - 0.5])
@example(entries=[0.5, _sum_edge(-1.0, False) - 0.5])
@example(entries=[0.2, 0.3, 0.5])
@example(entries=[1.0 / 130] * 130)  # past numpy's 8-way unrolled sum
@example(entries=[math.nan, 0.5])
@example(entries=[0.5, math.nan])
@example(entries=[math.inf, 1.0])
@example(entries=[0.5, -math.inf])
@example(entries=[2**63 - 1, 1])
@example(entries=[2**63, 1])
@example(entries=[2**64, 1.0])
@example(entries=[10**400, 1])
@example(entries=[np.float64(0.5), 0.5])
@example(entries=[np.int64(3), 4])
@example(entries=[True, 2])
@example(entries=[np.True_, 2.0])
@example(entries=[0.5, 0.5, False])
@example(entries=[])
@example(entries=[3, 4, 5])
@example(entries=[-0.0, 1.0])
@example(entries=[700.0, -700.0])
@example(entries=[1e308, -1e308])
# Log-ratio rows whose padded sum reaches numpy's 8-way unrolled and blocked
# pairwise sums.
@example(entries=[math.sin(i) for i in range(9)])
@example(entries=[3.0 * math.sin(i) for i in range(130)])
@example(entries=["0.5", 0.5])
@example(entries=[[0.5, 0.5]])
def test_one_row_matches_the_batch_row(target, entries):
    # The entries as given, and as an array where numpy makes one.
    try:
        forms = [entries, np.array(entries)]
    except (ValueError, OverflowError):
        forms = [entries]
    one, batch = TARGETS[target]
    for form in forms:
        got, want = _outcome(one, form), _outcome(batch, [form])
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, dict) and got.keys() == want.keys()
            assert all(_same_bits(got[name], want[name]) for name in want), (got, want)
