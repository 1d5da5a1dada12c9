"""The verification suite's reports and the one-point values against the
committed ledgers.

``tests/data/make_ledger.py`` writes the ledger and states the rule; a
change that moves an entry on purpose rewrites the ledger with it.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "make_ledger", Path(__file__).with_name("data") / "make_ledger.py")
make_ledger = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_ledger)


def test_suite_reports_match_the_ledger():
    assert make_ledger.moved(make_ledger.reports(), make_ledger.read()) == []


def test_one_point_values_match_the_ledger():
    ledger = make_ledger.read(make_ledger.VALUE_LEDGER)
    assert len(ledger) == 9 * make_ledger.CALLS_PER_KIND
    assert make_ledger.values_moved(make_ledger.values(ledger), ledger) == []


ENTRY = {"level": "quick", "master_seed": 3, "name": "a", "statistic": 2.0, "threshold": 1e-10,
         "passed": True, "inconclusive": False, "size": 10, "seed": 5, "detail": "d"}


@pytest.mark.parametrize(
    "change, moves",
    [
        ({"statistic": 2.0 * (1.0 + 0.9e-9)}, False),
        ({"statistic": 2.0 * (1.0 + 1.1e-9)}, True),
        ({"statistic": math.nan}, True),
        ({"statistic": math.nan, "_ledger_statistic": math.nan}, False),
        ({"statistic": 2.0, "_ledger_statistic": 0.5 + 0.9e-9}, True),
        ({"statistic": 0.5 + 0.9e-9, "_ledger_statistic": 0.5}, False),
        ({"threshold": 1.0000000001e-10}, True),
        ({"passed": False}, True),
        ({"inconclusive": True}, True),
        ({"size": 11}, True),
        ({"seed": 6}, True),
        ({"detail": "d; retried at 10x samples"}, True),
    ],
)
def test_the_rule(change, moves):
    change = dict(change)
    want = dict(ENTRY, statistic=change.pop("_ledger_statistic", ENTRY["statistic"]))
    got = dict(ENTRY, **change)
    lines = make_ledger.moved([got], [want])
    assert bool(lines) == moves
    if moves:
        assert len(lines) == 1 and lines[0].startswith("quick seed 3 a: ")


def test_a_missing_or_renamed_report_moves():
    assert make_ledger.moved([ENTRY], []) != []
    assert make_ledger.moved([dict(ENTRY, name="b")], [ENTRY]) != []


VALUE = {"kind": "nb", "args": [2.0, 0.5, 3], "value": -2.0}
VALUE_PMF = {"kind": "nnb_value", "args": [[1.0, 2.0], 1.0, 0, 1, 2], "value": [-0.5, 40]}


@pytest.mark.parametrize(
    "want, value, moves",
    [
        (VALUE, -2.0 * (1.0 + 0.9e-9), False),
        (VALUE, -2.0 * (1.0 + 1.1e-9), True),
        (VALUE, math.nan, True),
        (dict(VALUE, value=-0.5), -0.5 + 0.9e-9, False),
        (dict(VALUE, value=-0.5), -0.5 + 1.1e-9, True),
        (dict(VALUE, value=-math.inf), -math.inf, False),
        (VALUE_PMF, [-0.5 + 0.9e-9, 40], False),
        (VALUE_PMF, [-0.5 + 1.1e-9, 40], True),
        (VALUE_PMF, [-0.5, 41], True),
    ],
)
def test_the_value_rule(want, value, moves):
    lines = make_ledger.values_moved([dict(want, value=value)], [want])
    assert bool(lines) == moves
    if moves:
        assert len(lines) == 1 and lines[0].startswith(f"{want['kind']} {want['args']}: value ")


def test_a_missing_or_changed_call_moves():
    assert make_ledger.values_moved([VALUE], []) != []
    assert make_ledger.values_moved([dict(VALUE, args=[2.0, 0.5, 4])], [VALUE]) != []
