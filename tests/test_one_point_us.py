"""The per-kind and whole-stream timing of ``tests/data/one_point_us.py``,
run in process on a short chain-eval stream."""

import importlib.util
from pathlib import Path

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
