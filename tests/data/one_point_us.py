"""Time the chain-eval requests of this checkout and of another tree, kind
by kind and over the whole stream.

    python tests/data/one_point_us.py PARENT_DIR [--seed S] [--rounds N]

Each round runs one fresh ``python -B`` process per tree, with that
tree's ``src`` and this checkout's ``perfbench/`` on ``PYTHONPATH``: the
other tree's first in even rounds, this checkout's first in odd ones.  A
process runs ``workloads.chain_stream(S)`` through ``chain_worker._ops``
request by request, once to warm up and then three timed passes; each
request keeps the least of its three times, and each kind reports the
median of those in microseconds.  The ``stream`` line is the median over
all requests, the in-process counterpart of the benchmark's
``op_p50_ms``.

One line per kind, and the ``stream`` line, gives the requests of that kind in a pass, the median
over the rounds of each tree's median, the median over the rounds of
their ratio (this checkout over the other tree, both taken in the same
round, so a drift of the host's speed between rounds cancels), and the
least and greatest ratio of a single round, the spread to judge it by.
The inputs come from this checkout's ``perfbench/``, which is read and
never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
PASSES = 3
STREAM = "stream"


def kind_us(seed: int, count: int | None = None, passes: int = PASSES) -> dict:
    """``{kind: (requests, median us per request)}`` over one chain-eval
    stream at ``seed`` (its full length unless ``count`` is given), with
    the countcomp found on ``sys.path``: one warm pass, then ``passes``
    timed ones, each request keeping its least time.  The last key,
    ``STREAM``, holds the same over every request."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import chain_worker
    import countcomp
    import workloads

    ops = chain_worker._ops(countcomp)
    requests, _ = (workloads.chain_stream(seed) if count is None
                   else workloads.chain_stream(seed, count))
    calls = [(ops[kind], args) for kind, args in requests]
    times = np.empty((passes, len(calls)))
    clock = time.perf_counter
    for timed in range(-1, passes):
        for i, (fn, args) in enumerate(calls):
            t = clock()
            try:
                fn(*args)
            except Exception:  # a raise is timed like any other outcome
                pass
            t = clock() - t
            if timed >= 0:
                times[timed, i] = t
    best = times.min(axis=0) * 1e6
    kinds = np.array([kind for kind, _ in requests])
    out = {kind: (int((kinds == kind).sum()), float(np.median(best[kinds == kind])))
           for kind in dict.fromkeys(workloads.CHAIN_KINDS) if (kinds == kind).any()}
    out[STREAM] = (len(calls), float(np.median(best)))
    return out


def report(seed: int, before: list[dict], after: list[dict]) -> str:
    """The table of the rounds ``before`` (the other tree) and ``after``
    (this checkout), each a list of ``kind_us`` results, one per round."""
    lines = [f"seed {seed}, {len(after)} rounds: median us per request; "
             "ratio = this checkout / PARENT_DIR",
             f"{'kind':<12}{'requests':>9}{'parent':>10}{'this':>10}{'ratio':>8}  round ratios"]
    for kind in after[0]:
        was = [run[kind][1] for run in before]
        now = [run[kind][1] for run in after]
        ratios = [a / b for a, b in zip(now, was)]
        lines.append(f"{kind:<12}{after[0][kind][0]:>9}{statistics.median(was):>10.2f}"
                     f"{statistics.median(now):>10.2f}{statistics.median(ratios):>8.3f}"
                     f"  {min(ratios):.3f}-{max(ratios):.3f}")
    return "\n".join(lines)


def _child(tree: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-B", __file__, "--kind-us", str(seed)],
                          capture_output=True, env=env, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"timing at seed {seed} failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="root of the tree to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--kind-us", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.kind_us is not None:
        print(json.dumps(kind_us(args.kind_us)))
        return 0
    if args.parent is None or not (args.parent / "src" / "countcomp").is_dir():
        parser.error("PARENT_DIR must hold src/countcomp")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = args.parent.resolve()
    runs = {parent: [], ROOT: []}
    for round_ in range(args.rounds):
        for tree in (parent, ROOT) if round_ % 2 == 0 else (ROOT, parent):
            runs[tree].append(_child(tree, args.seed))
    print(report(args.seed, runs[parent], runs[ROOT]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
