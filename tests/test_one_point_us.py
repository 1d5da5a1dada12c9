"""The per-kind and whole-stream timing of ``tests/data/one_point_us.py``,
run in process on a short chain-eval stream."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "one_point_us", Path(__file__).with_name("data") / "one_point_us.py")
one_point_us = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(one_point_us)


def test_every_kind_and_the_stream_come_back_timed():
    got = one_point_us.kind_us(1, count=500, passes=1)
    import workloads  # perfbench/ is on sys.path once kind_us has run

    assert list(got) == [*workloads.CHAIN_KINDS, one_point_us.STREAM]
    assert sum(got[kind][0] for kind in workloads.CHAIN_KINDS) == 500
    assert got[one_point_us.STREAM][0] == 500
    assert all(requests > 0 and us > 0.0 for requests, us in got.values())


def test_the_report_has_a_stream_line():
    rounds = [one_point_us.kind_us(1, count=200, passes=1) for _ in range(2)]
    lines = one_point_us.report(1, rounds, rounds[::-1]).splitlines()
    assert [line.split()[0] for line in lines[2:]] == list(rounds[0])
    stream = lines[-1].split()
    assert stream[:2] == [one_point_us.STREAM, "200"]
    low, high = map(float, stream[-1].split("-"))
    assert low <= float(stream[-2]) <= high


def test_kinds_times_only_the_named_kinds():
    got = one_point_us.kind_us(1, count=500, passes=1, kinds=("dirichlet", "inverted"))
    everything = one_point_us.kind_us(1, count=500, passes=1)
    assert list(got) == ["dirichlet", "inverted", one_point_us.STREAM]
    for kind in ("dirichlet", "inverted"):
        assert got[kind][0] == everything[kind][0] > 0
    assert got[one_point_us.STREAM][0] == got["dirichlet"][0] + got["inverted"][0]


def test_an_unknown_kind_is_refused(capsys):
    with pytest.raises(SystemExit) as info:
        one_point_us.main(["--kinds", "dirichlet,gamma", "--kind-us", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown kinds gamma; the stream has nb, multinomial" in err
