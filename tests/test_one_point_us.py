"""The per-kind timing of ``tests/data/one_point_us.py``, run in process
on a short chain-eval stream."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "one_point_us", Path(__file__).with_name("data") / "one_point_us.py")
one_point_us = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(one_point_us)


def test_every_kind_comes_back_timed():
    got = one_point_us.kind_us(1, count=500, passes=1)
    import workloads  # perfbench/ is on sys.path once kind_us has run

    assert list(got) == list(workloads.CHAIN_KINDS)
    assert sum(requests for requests, _ in got.values()) == 500
    assert all(requests > 0 and us > 0.0 for requests, us in got.values())
