"""countcomp benchmark: one command for every workload.

    python3 perfbench/run.py --workload cli-stream|verify-quick|chain-eval \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The program is always the checkout's
own ``src/`` (``PYTHONPATH=src``; a ``countcomp`` that resolves anywhere
else stops the run), driven by one single-threaded closed-loop client:
the next operation starts when the previous one has finished.  A
workload's timed phase runs whole passes over its seeded op script and
starts another pass only while it is expected to end within ``--seconds``.

Times are drift-corrected.  On a small shared host the CPU's speed
wanders by tens of percent over seconds to minutes, so every op is
paired with a reference the program does not touch: a fresh
``python -c "import numpy"`` before each CLI job and each set-up, the
speed kernel sampled inside each verify run (``launch.py``) and timed
between blocks of chain-eval requests (``speed.py``).  A time is
reported as measured x nominal / measured reference; ``raw.*`` lines
print the uncorrected values.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Lines before the
last one print every metric by name and unit, the environment and the
self-test of the output checkers; the last line is one JSON object.
Exit code 1 without a result means the benchmark could not run.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import KERNEL_NOMINAL_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 150
REFERENCE = ["-c", "import numpy"]
REFERENCE_NOMINAL_S = 0.2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args, stdin=None):
    """Run ``python <args>`` in a fresh process; returns (rc, out, err, wall)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], input=stdin, capture_output=True,
                              env=_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        rc, out, err = -1, exc.stdout or b"", b"timed out"
    return rc, out, err, time.perf_counter() - start


def check_checkout() -> None:
    if not (SRC / "countcomp" / "__init__.py").is_file():
        raise BenchError(f"no countcomp package under {SRC}")


def reference_s() -> float:
    """Wall time of the reference task, a fresh ``import numpy``."""
    rc, _, err, wall = run_python(REFERENCE)
    if rc != 0:
        raise BenchError(f"reference task failed: {err.decode()[-300:]}")
    return wall


def import_setup_s() -> tuple[float, float]:
    """Median wall time of a fresh-process ``import countcomp``, each one
    corrected by a reference run just before it; returns (corrected, raw).
    Also checks that the import resolves to this checkout."""
    check_checkout()
    walls, corrected = [], []
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        rc, out, err, wall = run_python(
            ["-c", "import sys, countcomp; sys.stdout.write(countcomp.__file__)"])
        if rc != 0:
            raise BenchError(f"import countcomp failed: {err.decode()[-300:]}")
        if Path(out.decode()).resolve().parent != (SRC / "countcomp").resolve():
            raise BenchError(f"countcomp resolves to {out.decode()}, not under {SRC}")
        walls.append(wall)
        corrected.append(wall * REFERENCE_NOMINAL_S / ref)
    return statistics.median(corrected), statistics.median(walls)


def import_layers() -> dict:
    """``python -X importtime -c "import countcomp"``: the package's and
    its checks module's cumulative time, and the self time of every
    numpy and scipy module."""
    rc, _, err, _ = run_python(["-X", "importtime", "-c", "import countcomp"])
    if rc != 0:
        raise BenchError("import countcomp failed under -X importtime")
    self_us, cumulative_us = {}, {}
    for line in err.decode().splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)", line)
        if match:
            name = match.group(3)
            self_us[name] = int(match.group(1))
            cumulative_us[name] = int(match.group(2))
    top = lambda pkg: 1e-6 * sum(v for k, v in self_us.items() if k.split(".")[0] == pkg)
    return {"import.countcomp_s": 1e-6 * cumulative_us.get("countcomp", 0),
            "import.scipy_s": top("scipy"),
            "import.numpy_s": top("numpy"),
            "import.checks_s": 1e-6 * cumulative_us.get("countcomp.checks", 0)}


def peak_children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def keep_running(begin: float, walls: list, seconds: float) -> bool:
    """Start another pass only if it should end within ``seconds``."""
    if not walls:
        return True
    return time.perf_counter() - begin + statistics.mean(walls) <= seconds


class Outcome:
    """Attempted and failed ops, and whether every output was as expected.

    A failure of an op flagged as a known defect is counted but leaves
    ``correct`` alone; any other failure or wrong output makes it false.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def record(self, label: str, problem, defect: bool = False) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        self.notes.append(f"{'known defect' if defect else 'FAILED'}: {label}: {problem}")
        if not defect:
            self.correct = False

    def control(self, name: str, problem) -> None:
        """A self-test: the checker must reject a corrupted output."""
        rejected = problem is not None
        self.notes.append(f"selftest {name}: {'rejected' if rejected else 'NOT REJECTED'}")
        self.correct = self.correct and rejected


# ---------------------------------------------------------------------------
# cli-stream
# ---------------------------------------------------------------------------


class Job:
    def __init__(self, spec, rc, out, wall, stdin=None, summary=None, refs=()):
        self.spec, self.rc, self.out, self.wall = spec, rc, out, wall
        self.stdin, self.summary, self.refs = stdin, summary, list(refs)


def run_jobs(jobs, launcher="plain", tag="", refs=0) -> tuple[float, list[Job]]:
    """One pass over a job script, with ``refs`` reference runs before
    each job; returns (pass wall, jobs run).

    ``launcher`` is ``plain`` (``python -m countcomp.cli``), or
    ``traced`` or ``sampled`` (``launch.py``; the job's summary holds its
    span statistics or its CPU-speed samples).
    """
    done: list[Job] = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        ref_walls = [reference_s() for _ in range(refs)]
        stdin = job.get("stdin")
        if "source" in job["spec"]:
            stdin = workloads.strip_last_column(done[job["spec"]["source"]].out)
        summary_path = OUT / f"{launcher}-{tag}-{index}.json"
        if launcher == "plain":
            args = ["-m", "countcomp.cli", *job["argv"]]
        else:
            spans_path = [OUT / f"spans-{tag}-{index}.jsonl"] if launcher == "traced" else []
            args = [HERE / "launch.py", launcher, SRC, summary_path, *spans_path,
                    "--", *job["argv"]]
        rc, out, _, wall = run_python(args, stdin)
        summary = None
        if launcher != "plain":
            try:
                summary = json.loads(summary_path.read_text())
            except (OSError, ValueError):
                raise BenchError(f"{launcher} job {job['label']} left no summary") from None
        done.append(Job(job, rc, out, wall, stdin, summary, ref_walls))
    return time.perf_counter() - start, done


def check_job(job: Job):
    import oracle

    kind, spec = job.spec["kind"], job.spec["spec"]
    if kind == "eval":
        return oracle.check_eval(spec, job.rc, job.out)
    if kind == "sample":
        return oracle.check_sample(spec, job.rc, job.out)
    if kind == "transform":
        return oracle.check_transform(spec, job.rc, job.out)
    return oracle.check_verify(job.rc, job.out)


def record_jobs(outcome: Outcome, done: list[Job]) -> list:
    problems = []
    for job in done:
        problem = check_job(job)
        outcome.record(job.spec["label"], problem, job.spec["defect"])
        problems.append(problem)
    return problems


def _first_ok(done, problems, kind, direction=None):
    for job, problem in zip(done, problems):
        if job.spec["kind"] == kind and problem is None and (
                direction is None or job.spec["spec"]["direction"] == direction):
            return job
    return None


def cli_selftest(outcome: Outcome, done, problems) -> None:
    """Feed the checkers corrupted copies of real outputs."""
    job = _first_ok(done, problems, "eval")
    if job is not None:
        record = json.loads(job.out)
        record["logValue"] += 1e-6 * max(1.0, abs(record["logValue"]))
        bad = Job(job.spec, 0, json.dumps(record).encode(), 0.0)
        outcome.control("perturbed-logValue", check_job(bad))
    job = _first_ok(done, problems, "transform", "inverse")
    if job is not None:
        lines = job.out.decode().splitlines()
        first = lines[1].split(",")
        first[0] = repr(float(first[0]) * (1.0 + 1e-9))
        lines[1] = ",".join(first)
        bad = Job(job.spec, 0, ("\n".join(lines) + "\n").encode(), 0.0)
        outcome.control("non-round-tripping-row", check_job(bad))
    job = _first_ok(done, problems, "sample")
    if job is not None:
        bad = Job(job.spec, 0, job.out.rsplit(b"\n", 2)[0] + b"\n", 0.0)
        outcome.control("missing-sample-row", check_job(bad))
    for kind in ("eval", "transform", "sample"):
        if _first_ok(done, problems, kind) is None:
            outcome.control(f"{kind}-checker-has-a-good-output", None)


def process_start_s(job: Job) -> float:
    """Fresh-process wall of a traced job minus its in-process ``main``
    time and the tracer's own install and write-out time."""
    stats = spans.SpanStats()
    stats.merge(job.summary)
    return job.wall - stats.total_s("cli.main") - job.summary.get("bookkeeping_s", 0.0)


def corrected_pass(jobs, launcher="plain", tag=""):
    """One pass with a reference before each job and one after; returns
    (drift-corrected sum of job walls, jobs run)."""
    _, done = run_jobs(jobs, launcher, tag, refs=1)
    refs = [r for job in done for r in job.refs] + [reference_s()]
    return sum(job.wall for job in done) * REFERENCE_NOMINAL_S / statistics.mean(refs), done


def timed_passes(jobs, seconds: float, sampled: bool = False):
    """Whole passes until ``seconds``; returns (corrected pass walls,
    raw pass walls, [(job, corrected wall)] and the median reference).

    Plain jobs get one ``import numpy`` reference each, and a pass is
    corrected by the references inside it and the one just after it.
    A sampled job is corrected by the CPU speed sampled inside it.
    """
    passes, walls = [], []
    begin = time.perf_counter()
    while keep_running(begin, walls, seconds):
        wall, done = (run_jobs(jobs, "sampled", tag=str(len(passes))) if sampled
                      else run_jobs(jobs, refs=1))
        walls.append(wall)
        passes.append(done)
    trailing = [] if sampled else [reference_s()]
    corrected, raw, scaled, references = [], [], [], []
    for i, done in enumerate(passes):
        if sampled:
            scales = [KERNEL_NOMINAL_S / job.summary["kernel_s"] for job in done]
            references.extend(job.summary["kernel_s"] for job in done)
        else:
            after = passes[i + 1][0].refs if i + 1 < len(passes) else trailing
            refs_here = [r for job in done for r in job.refs] + after
            scales = [REFERENCE_NOMINAL_S / statistics.mean(refs_here)] * len(done)
            references.extend(refs_here)
        raw.append(sum(job.wall for job in done))
        corrected.append(sum(job.wall * scale for job, scale in zip(done, scales)))
        scaled.extend((job, job.wall * scale) for job, scale in zip(done, scales))
    return corrected, raw, scaled, statistics.median(references)


def _rows(job: Job) -> int:
    return max(0, len(job.out.splitlines()) - 1) if job.rc == 0 else 0


def cli_stream(seed: int, seconds: float, trace: bool, outcome: Outcome) -> dict:
    jobs = workloads.cli_jobs(seed)
    if trace:
        check_checkout()
        untraced_wall, untraced = corrected_pass(jobs)
        traced_wall, traced = corrected_pass(jobs, "traced", tag="cli")
        stats = spans.SpanStats()
        for job in traced:
            stats.merge(job.summary)
        metrics = spans.layer_metrics(stats)
        metrics.update(import_layers())
        metrics.update(verify_counts(stats, b""))
        metrics["cli.process_start_s"] = sum(process_start_s(job) for job in traced)
        metrics["cli.rows_in"] = sum(len(job.stdin.splitlines()) - 1
                                     for job in traced if job.stdin)
        metrics["cli.rows_out"] = sum(_rows(job) for job in traced)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        record_jobs(outcome, untraced)
        cli_selftest(outcome, traced, record_jobs(outcome, traced))
        return metrics

    setup, raw_setup = import_setup_s()
    walls, raw_walls, scaled, ref = timed_passes(jobs, seconds)
    peak = peak_children_rss_mb()
    done_all = [job for job, _ in scaled]
    problems = record_jobs(outcome, done_all)
    cli_selftest(outcome, done_all, problems)
    of_kind = lambda kind: [(job, wall, problem is None)
                            for (job, wall), problem in zip(scaled, problems)
                            if job.spec["kind"] == kind]
    rate = lambda kind: sum(_rows(job) for job, _, ok in of_kind(kind) if ok) / sum(
        wall for _, wall, _ in of_kind(kind))
    return {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(wall for _, wall in scaled),
        "peak_rss_mb": peak,
        "error_rate": outcome.failed / outcome.attempted,
        "cli_eval_s": statistics.median(wall for _, wall, _ in of_kind("eval")),
        "sample_rows_per_s": rate("sample"),
        "transform_rows_per_s": rate("transform"),
        "raw.setup_s": raw_setup,
        "raw.wall_s": statistics.median(raw_walls),
        "reference.import_numpy_s": ref,
    }


# ---------------------------------------------------------------------------
# verify-quick
# ---------------------------------------------------------------------------


def _verify_job(seed: int) -> dict:
    return {"label": "verify-quick", "kind": "verify", "defect": False, "spec": {},
            "argv": ["verify", "--level", "quick", "--seed", str(workloads.verify_seed(seed))]}


def verify_selftest(outcome: Outcome, job: Job) -> None:
    lines = job.out.decode().splitlines()
    if len(lines) < 2:
        outcome.control("verify-checker-has-a-good-output", None)
        return
    dropped = Job(job.spec, 0, ("\n".join(lines[:-1]) + "\n").encode(), 0.0)
    outcome.control("missing-verify-line", check_job(dropped))
    report = json.loads(lines[0])
    report.update(passed=False, inconclusive=False)
    failed = Job(job.spec, 0, ("\n".join([json.dumps(report)] + lines[1:]) + "\n").encode(), 0.0)
    outcome.control("failed-verify-line", check_job(failed))


def verify_counts(stats: spans.SpanStats, out: bytes) -> dict:
    """Counts read from the public reports of one verify run (all zero
    for a workload that runs no verify)."""
    import oracle

    try:
        reports = oracle.verify_reports(out)
    except ValueError:
        reports = []
    useful = 0
    for r in reports:
        match = re.match(r"conditional-multinomial-n(\d+)-", r.get("name", ""))
        if match:
            accepted = r["statistic"] if r.get("inconclusive") else r["size"]
            useful += int(match.group(1)) * accepted
    draws = sum(n for (name, parent), (n, _, _) in stats.edges.items()
                if name == "distributions.poisson_sample"
                and parent == "checks.check_conditional_multinomial")
    return {
        "checks.retries": sum("retried" in r.get("detail", "") for r in reports),
        "checks.inconclusive": sum(bool(r.get("inconclusive")) for r in reports),
        "checks.draws": sum(r["size"] for r in reports
                            if r.get("name", "").startswith(oracle.STATISTICAL_PREFIXES)),
        "checks.conditional_multinomial.accept_ratio": useful / draws if draws else 0.0,
    }


def verify_quick(seed: int, seconds: float, trace: bool, outcome: Outcome) -> dict:
    job = _verify_job(seed)
    if trace:
        check_checkout()
        untraced_wall, untraced = corrected_pass([job])
        traced_wall, traced = corrected_pass([job], "traced", tag="verify")
        stats = spans.SpanStats()
        stats.merge(traced[0].summary)
        metrics = spans.layer_metrics(stats)
        metrics.update(import_layers())
        metrics.update(verify_counts(stats, traced[0].out))
        metrics["cli.process_start_s"] = process_start_s(traced[0])
        metrics["cli.rows_in"] = 0
        metrics["cli.rows_out"] = len(traced[0].out.splitlines())
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        done = untraced + traced
    else:
        setup, raw_setup = import_setup_s()
        walls, raw_walls, scaled, ref = timed_passes([job], seconds, sampled=True)
        done = [job for job, _ in scaled]
        metrics = {"setup_s": setup, "wall_s": statistics.median(walls),
                   "op_p50_ms": 1e3 * statistics.median(walls),
                   "peak_rss_mb": peak_children_rss_mb(),
                   "raw.setup_s": raw_setup, "raw.wall_s": statistics.median(raw_walls),
                   "reference.kernel_s": ref}
    record_jobs(outcome, done)
    if any(j.out != done[0].out for j in done):
        outcome.correct = False
        outcome.notes.append("FAILED: verify output differs between runs with one seed")
    verify_selftest(outcome, done[0])
    if not trace:
        metrics["error_rate"] = outcome.failed / outcome.attempted
    return metrics


# ---------------------------------------------------------------------------
# chain-eval
# ---------------------------------------------------------------------------


def chain_worker(seed: int, mode: str, seconds: float = 0.0, spans_path=None):
    """Start the evaluator; returns (set-up wall up to ``ready``, result)."""
    args = [sys.executable, HERE / "chain_worker.py", "--seed", seed, "--mode", mode,
            "--seconds", seconds, "--src", SRC]
    if spans_path is not None:
        args += ["--spans", spans_path]
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("chain-eval worker timed out")
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"chain-eval worker failed: {err.decode()[-500:]}")
    return setup, (json.loads(rest.splitlines()[-1]) if rest.strip() else None)


def record_chain(outcome: Outcome, seed: int, result: dict) -> None:
    import oracle

    requests, defects = workloads.chain_stream(seed)
    passes = result["attempted"] // len(requests)
    outcome.attempted += result["attempted"]
    outcome.failed += result["failed"]
    for index in result["failures"]:
        if index not in defects:
            outcome.correct = False
            outcome.notes.append(f"FAILED: request {index} ({requests[index][0]}) raised: "
                                 f"{result['values'].get(str(index), '')}")
        else:
            outcome.notes.append(f"known defect: request {index} ({requests[index][0]}) raised")
    first = None
    for key, value in result["values"].items():
        index = int(key)
        kind, args = requests[index]
        if index in result["failures"]:
            continue
        problem = oracle.check_chain(kind, args, value)
        if first is None and problem is None and kind != "nnb_value":
            first = (kind, args, value)
        if problem is not None:
            # A wrong value is a failed request in every pass.
            outcome.failed += passes
            if index not in defects:
                outcome.correct = False
            outcome.notes.append(f"FAILED: request {index}: {problem}")
    if first is None:
        outcome.control("chain-checker-has-a-good-output", None)
    else:
        kind, args, value = first
        outcome.control("perturbed-chain-value",
                        oracle.check_chain(kind, args, value + 1e-6 * max(1.0, abs(value))))


def chain_eval(seed: int, seconds: float, trace: bool, outcome: Outcome) -> dict:
    check_checkout()
    if trace:
        _, result = chain_worker(seed, "trace", spans_path=OUT / "spans-chain.jsonl")
        stats = spans.SpanStats()
        stats.merge(result["summary"])
        metrics = spans.layer_metrics(stats)
        metrics.update(import_layers())
        metrics.update(verify_counts(stats, b""))
        metrics.update({"cli.process_start_s": 0.0, "cli.rows_in": 0, "cli.rows_out": 0,
                        "trace.overhead_s": result["walls"][1] - result["walls"][0]})
        record_chain(outcome, seed, result)
        return metrics
    setups, raw_setups = [], []
    for repeat in range(SETUP_REPEATS):
        ref = reference_s()
        mode = "measure" if repeat == SETUP_REPEATS - 1 else "setup"
        setup, result = chain_worker(seed, mode, seconds)
        raw_setups.append(setup)
        setups.append(setup * REFERENCE_NOMINAL_S / ref)
    record_chain(outcome, seed, result)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "op_p50_ms": 1e3 * result["p50_s"],
        "peak_rss_mb": result["rss_mb"],
        "error_rate": outcome.failed / outcome.attempted,
        "evals_per_s": result["requests"] / sum(result["walls"]),
        "eval_p50_us": 1e6 * result["p50_s"],
        "eval_p99_us": 1e6 * result["p99_s"],
        "raw.setup_s": statistics.median(raw_setups),
        "raw.wall_s": statistics.median(result["raw_walls"]),
        "reference.kernel_s": result["kernel_s"],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

RUNNERS = {"cli-stream": cli_stream, "verify-quick": verify_quick, "chain-eval": chain_eval}
# Printed with every untraced run; the gated subset is BENCHMARK.json's.
EXTRA_UNITS = {"error_rate": "ratio", "cli_eval_s": "s", "sample_rows_per_s": "1/s",
               "transform_rows_per_s": "1/s", "evals_per_s": "1/s", "eval_p50_us": "us",
               "eval_p99_us": "us", "raw.setup_s": "s", "raw.wall_s": "s",
               "reference.import_numpy_s": "s", "reference.kernel_s": "s"}


def environment(workload: str, seed: int) -> str:
    import scipy

    threads = " ".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} {threads} "
            f"workload={workload} seed={seed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        OUT.mkdir(exist_ok=True)
        outcome = Outcome()
        metrics = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), outcome)
        units = {m["name"]: m["unit"] for m in wanted} | EXTRA_UNITS
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    except (BenchError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(environment(args.workload, args.seed))
    for note in outcome.notes:
        print(note)
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units.get(name, '')}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
