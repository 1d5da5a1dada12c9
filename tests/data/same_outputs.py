"""Compare the outputs of this checkout with those of another tree.

    python tests/data/same_outputs.py PARENT_DIR

Every run is a fresh process, ``python -B -W error``, with one tree's
``src`` alone on ``PYTHONPATH``.  Three sweeps run on both trees:

- ``verify``: stdout and exit code of ``countcomp.cli verify`` at quick
  seeds 0-29 and full seeds 0-4 and 11;
- ``chain-eval``: the ``repr`` of every result or exception of one pass
  of ``workloads.chain_stream(S)`` through ``chain_worker._ops``, at
  seeds 1 and 4;
- ``cli-stream``: stdout, stderr and exit code of the 20
  ``workloads.cli_jobs(S)`` jobs at seeds 1-3, an inverse transform
  reading its own tree's forward output as the benchmark does.

The inputs come from this checkout's ``perfbench/``, so both trees see
the same ones.  One line per sweep gives the count of runs that differ
and names the first few; the exit code is 1 if any differs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
VERIFY_RUNS = ([("quick", seed) for seed in range(30)]
               + [("full", seed) for seed in (0, 1, 2, 3, 4, 11)])
CHAIN_SEEDS = (1, 4)
CLI_SEEDS = (1, 2, 3)
SHOWN = 5


def _run(tree: Path, args, stdin=None) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-B", "-W", "error", *map(str, args)], input=stdin,
                          capture_output=True, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def verify_outputs(tree: Path) -> dict:
    return {f"{level} seed {seed}": _run(tree, ["-m", "countcomp.cli", "verify",
                                                "--level", level, "--seed", seed])[:2]
            for level, seed in VERIFY_RUNS}


def chain_outputs(tree: Path) -> dict:
    out = {}
    for seed in CHAIN_SEEDS:
        rc, stdout, stderr = _run(tree, [__file__, "--chain-reprs", seed])
        if rc != 0:
            sys.exit(f"chain-eval pass at seed {seed} failed in {tree}:\n{stderr.decode()}")
        for i, line in enumerate(stdout.decode().splitlines()):
            out[f"seed {seed} request {i}"] = line
    return out


def cli_outputs(tree: Path) -> dict:
    import workloads

    out = {}
    for seed in CLI_SEEDS:
        done = []
        for job in workloads.cli_jobs(seed):
            stdin = job.get("stdin")
            if "source" in job["spec"]:
                stdin = workloads.strip_last_column(done[job["spec"]["source"]][1])
            done.append(_run(tree, ["-m", "countcomp.cli", *job["argv"]], stdin))
            out[f"seed {seed} job {len(done) - 1} {job['label']}"] = done[-1]
    return out


def chain_reprs(seed: int) -> None:
    """Print one line per request of the chain-eval stream at ``seed``:
    the repr of its result or of the exception it raised."""
    import chain_worker
    import countcomp
    import workloads

    ops = chain_worker._ops(countcomp)
    requests, _ = workloads.chain_stream(seed)
    lines = []
    for kind, args in requests:
        try:
            value = ops[kind](*args)
        except Exception as exc:  # a raise is an outcome to compare
            value = exc
        lines.append(repr(value))
    sys.stdout.write("\n".join(lines) + "\n")


SWEEPS = {"verify": verify_outputs, "chain-eval": chain_outputs, "cli-stream": cli_outputs}


def differing(got: dict, want: dict) -> list[str]:
    return [key for key in dict.fromkeys(itertools.chain(got, want))
            if got.get(key) != want.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="root of the tree to compare with")
    parser.add_argument("--chain-reprs", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.chain_reprs is not None:
        chain_reprs(args.chain_reprs)
        return 0
    if args.parent is None or not (args.parent / "src" / "countcomp").is_dir():
        parser.error("PARENT_DIR must hold src/countcomp")
    sys.path.insert(0, str(PERFBENCH))
    failed = False
    for name, outputs in SWEEPS.items():
        want, got = outputs(args.parent.resolve()), outputs(ROOT)
        keys = differing(got, want)
        failed |= bool(keys)
        shown = "".join(f"; {key}" for key in keys[:SHOWN])
        print(f"{name}: {len(keys)} of {len(want)} differ{shown}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
