"""Run one CLI job in a fresh process, traced or with its CPU speed sampled.

    python perfbench/launch.py sampled SRC SUMMARY -- <countcomp cli args>
    python perfbench/launch.py traced SRC SUMMARY SPANS -- <countcomp cli args>

Behaves like ``python -m countcomp.cli <args>`` (same stdin, stdout and
exit code), after checking that ``countcomp`` imports from SRC, and
writes a JSON summary to SUMMARY.

``sampled`` pins the process to the CPU it started on; a thread times
``speed.kernel`` every 0.1 s while the job runs (about 0.5 % of the CPU)
and the summary holds the mean kernel time.  ``traced`` installs the
spans of ``spans.py`` before calling ``cli.main``; the summary holds the
span statistics and the time spent installing and writing them, and the
kept spans go to SPANS.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

SAMPLE_EVERY_S = 0.1


def _current_cpu() -> int:
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _sampler():
    """Start sampling; returns a function that stops it and gives the
    summary."""
    import speed

    os.sched_setaffinity(0, {_current_cpu()})
    samples, stop = [speed.kernel()], threading.Event()

    def sample():
        while not stop.wait(SAMPLE_EVERY_S):
            samples.append(speed.kernel())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()

    def finish():
        stop.set()
        thread.join()
        return {"kernel_s": statistics.mean(samples), "samples": len(samples)}

    return finish


def _tracer(spans_path):
    import spans

    start = time.perf_counter()
    tracer = spans.Tracer()
    spans.install(tracer)
    install_s = time.perf_counter() - start

    def finish():
        start = time.perf_counter()
        tracer.dump(spans_path)
        summary = tracer.summary()
        # Installing and writing spans is tracing cost, not process start.
        summary["bookkeeping_s"] = install_s + time.perf_counter() - start
        return summary

    return finish


def main() -> int:
    split = sys.argv.index("--")
    mode, src, summary_path, *spans_path = sys.argv[1:split]
    finish = _sampler() if mode == "sampled" else None
    import countcomp

    if Path(countcomp.__file__).resolve().parent != Path(src).resolve() / "countcomp":
        print(f"countcomp resolves to {countcomp.__file__}, not under {src}", file=sys.stderr)
        return 2
    if mode == "traced":
        finish = _tracer(*spans_path)
    from countcomp import cli

    try:
        return cli.main(sys.argv[split + 1:])
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(finish(), fh)


if __name__ == "__main__":
    sys.exit(main())
