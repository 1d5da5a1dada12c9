"""Seeded inputs for the three workloads.

Every input is drawn with numpy's own ``Generator`` from the workload
seed, never with the library's samplers, and nothing here imports
``countcomp`` or ``scipy``: the program under test only ever sees the
numbers generated here.  The same seed gives the same inputs in the
benchmark process, in the evaluation worker and in the oracle.

Parameter ranges follow what the library's validation accepts, not
where it currently works.  Requests that hit a known domain defect
(ROADMAP item 3) stay in the mix at a small fixed share and carry
``defect=True``: their failure is counted, but it is not a correctness
regression of a later change.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("cli-stream", "verify-quick", "chain-eval")

# Substreams of the workload seed, one per purpose.
_CLI, _VERIFY, _CHAIN, _CHAIN_WARMUP, _CHAIN_SUBSET = range(5)

TRANSFORM_ROWS = 10_000
TRANSFORM_N = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _loguniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def fmt(value) -> str:
    """Exact text of a float (round-trips through ``float``)."""
    return repr(float(value))


def csv_text(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# cli-stream: a fixed script of fresh-process CLI jobs
# ---------------------------------------------------------------------------


def _eval_job(dist: str, params: dict, point) -> dict:
    point = [int(v) if isinstance(v, (int, np.integer)) else float(v) for v in point]
    text = ",".join(str(v) if isinstance(v, int) else fmt(v) for v in point)
    # "--point=..." keeps a leading minus sign from reading as an option.
    argv = ["eval", "--dist", dist, "--params", json.dumps(params), f"--point={text}"]
    return {"label": f"eval-{dist}", "kind": "eval", "argv": argv, "defect": False,
            "spec": {"dist": dist, "params": params, "point": point}}


def _sample_job(label, dist, params, count, rng, defect=False) -> dict:
    seed = int(rng.integers(0, 2**31))
    argv = ["sample", "--dist", dist, "--params", json.dumps(params),
            "--count", str(count), "--seed", str(seed)]
    return {"label": label, "kind": "sample", "argv": argv, "defect": defect,
            "spec": {"dist": dist, "params": params, "count": count}}


def cli_jobs(seed: int) -> list[dict]:
    """The cli-stream script: 8 ``eval`` jobs (one per distribution),
    8 ``sample`` jobs and 4 ``transform`` jobs, in a fixed order.

    Each job is a dict with ``label``, ``kind``, ``argv`` (arguments
    after ``-m countcomp.cli``), ``defect`` and an oracle ``spec``.  An
    inverse transform job reads the output of the forward job named by
    ``spec["source"]`` with its Jacobian column stripped, so the pair is
    a round trip.
    """
    rng = _rng(seed, _CLI)
    u = lambda lo, hi, size=None: np.asarray(rng.uniform(lo, hi, size)).tolist()
    jobs = []

    n = int(rng.integers(3, 7))
    jobs.append(_eval_job("dirichlet", {"alpha": u(0.5, 5.0, n)}, rng.dirichlet(np.full(n, 2.0))))
    n = int(rng.integers(3, 7))
    jobs.append(_eval_job("inverted-dirichlet", {"alpha": u(0.5, 5.0, n)},
                          np.exp(rng.normal(0.0, 1.0, n - 1))))
    n = int(rng.integers(3, 7))
    jobs.append(_eval_job("alr-dirichlet", {"alpha": u(0.5, 5.0, n)}, rng.normal(0.0, 2.0, n - 1)))
    big_r, p = float(_loguniform(rng, 0.1, 100.0)), u(0.05, 0.95)
    jobs.append(_eval_job("negative-binomial", {"R": big_r, "p": p},
                          [int(rng.negative_binomial(big_r, 1.0 - p))]))
    n = int(rng.integers(2, 7))
    probs = rng.dirichlet(np.full(n, 2.0))
    jobs.append(_eval_job("multinomial", {"probs": probs.tolist()},
                          rng.multinomial(int(rng.integers(0, 201)), probs).tolist()))
    n = int(rng.integers(2, 7))
    shapes = rng.uniform(0.2, 5.0, n)
    jobs.append(_eval_job("dirichlet-multinomial", {"shapes": shapes.tolist()},
                          rng.multinomial(int(rng.integers(0, 201)), rng.dirichlet(shapes)).tolist()))
    m = int(rng.integers(1, 501))
    jobs.append(_eval_job("beta-binomial",
                          {"a": float(_loguniform(rng, 0.1, 50.0)),
                           "b": float(_loguniform(rng, 0.1, 50.0)), "m": m},
                          [int(rng.integers(0, m + 1))]))
    n = int(rng.integers(2, 5))
    shapes, scale = rng.uniform(0.3, 5.0, n), float(_loguniform(rng, 0.1, 10.0))
    m = int(rng.negative_binomial(shapes.sum(), 1.0 / (1.0 + scale)))
    jobs.append(_eval_job("normalized-nb",
                          {"shapes": shapes.tolist(), "scale": scale,
                           "component": int(rng.integers(0, n))},
                          [int(rng.integers(0, m + 1)), m]))

    jobs.append(_sample_job("sample-dirichlet-n3", "dirichlet", {"alpha": u(0.5, 5.0, 3)},
                            10_000, rng))
    n = int(rng.integers(9, 12))
    jobs.append(_sample_job("sample-dirichlet-n10", "dirichlet", {"alpha": u(0.5, 5.0, n)},
                            2_000, rng))
    jobs.append(_sample_job("sample-gamma", "gamma",
                            {"shape": u(0.3, 5.0), "scale": float(_loguniform(rng, 0.2, 5.0))},
                            10_000, rng))
    jobs.append(_sample_job("sample-poisson-inversion", "poisson", {"rate": u(2.0, 25.0)},
                            10_000, rng))
    jobs.append(_sample_job("sample-poisson-ptrs", "poisson", {"rate": u(40.0, 400.0)},
                            10_000, rng))
    jobs.append(_sample_job("sample-negative-binomial", "negative-binomial",
                            {"R": u(0.5, 10.0), "theta": float(_loguniform(rng, 0.2, 5.0))},
                            10_000, rng))
    n = int(rng.integers(3, 7))
    jobs.append(_sample_job("sample-multinomial", "multinomial",
                            {"probs": rng.dirichlet(np.full(n, 2.0)).tolist(),
                             "m": int(rng.integers(10, 201))},
                            5_000, rng))
    # Known defect: Gamma(1e-2) draws underflow, and the normalized row
    # is rejected by Composition.
    jobs.append(_sample_job("sample-dirichlet-sparse", "dirichlet", {"alpha": u(0.008, 0.012, 3)},
                            5_000, rng, defect=True))

    for kind in ("ratio", "alr"):
        x = rng.dirichlet(rng.uniform(0.5, 5.0, TRANSFORM_N), size=TRANSFORM_ROWS)
        stdin = csv_text([f"x{i + 1}" for i in range(TRANSFORM_N)], x)
        forward = len(jobs)
        jobs.append({"label": f"transform-{kind}-forward", "kind": "transform",
                     "argv": ["transform", kind, "forward", "--jacobian"], "defect": False,
                     "stdin": stdin, "spec": {"transform": kind, "direction": "forward", "x": x}})
        jobs.append({"label": f"transform-{kind}-inverse", "kind": "transform",
                     "argv": ["transform", kind, "inverse", "--jacobian"], "defect": False,
                     "spec": {"transform": kind, "direction": "inverse", "x": x,
                              "source": forward}})
    return jobs


def strip_last_column(csv_bytes: bytes) -> bytes:
    """Drop the trailing (Jacobian) column of CLI transform output."""
    lines = csv_bytes.decode().splitlines()
    return ("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n").encode()


# ---------------------------------------------------------------------------
# verify-quick
# ---------------------------------------------------------------------------


def verify_seed(seed: int) -> int:
    return int(_rng(seed, _VERIFY).integers(0, 2**31))


# ---------------------------------------------------------------------------
# chain-eval: a stream of single-call evaluation requests
# ---------------------------------------------------------------------------

CHAIN_KINDS = ("nb", "multinomial", "dm", "bb", "nnb", "nnb_value",
               "dirichlet", "inverted", "alr")
# nnb_value requests are the slowest regular ones; at 1.5 % they sit
# above the 99th percentile of latency, so the value PMF moves p99.
CHAIN_WEIGHTS = (0.19, 0.15, 0.15, 0.15, 0.15, 0.015, 0.065, 0.065, 0.065)
CHAIN_REQUESTS = 100_000
CHAIN_WARMUP = 2_000
CHAIN_CHECKED = 2_500
M_MAX = 2_000


def _by_dimension(rng, size, make):
    """Requests whose vectors have a random length n in 2..10, drawn in
    one batch per n; ``make(n, k)`` returns k argument tuples."""
    ns = rng.integers(2, 11, size)
    out = [None] * size
    for n in range(2, 11):
        where = np.flatnonzero(ns == n)
        for i, args in zip(where, make(n, where.size)):
            out[i] = args
    return out


def _chain_batch(kind: str, rng: np.random.Generator, size: int) -> list[tuple]:
    """Raw arguments of ``size`` requests of one kind, as plain Python
    numbers and lists."""
    lu = lambda lo, hi, shape=size: _loguniform(rng, lo, hi, shape)
    totals = lambda k: rng.integers(0, M_MAX + 1, k)
    if kind == "nb":
        return list(zip(lu(1e-2, 2e3).tolist(), rng.uniform(0.02, 0.98, size).tolist(),
                        totals(size).tolist()))
    if kind == "bb":
        m = totals(size)
        return list(zip(lu(1e-2, 1e3).tolist(), lu(1e-2, 1e3).tolist(), m.tolist(),
                        rng.integers(0, m + 1).tolist()))
    if kind in ("multinomial", "dm"):
        def make(n, k):
            m = totals(k)
            x = rng.multinomial(m, rng.dirichlet(np.ones(n), k)).tolist()
            if kind == "multinomial":
                return zip(m.tolist(), rng.dirichlet(np.ones(n), k).tolist(), x)
            return zip(lu(1e-2, 1e3, (k, n)).tolist(), m.tolist(), x)
        return _by_dimension(rng, size, make)
    if kind in ("nnb", "nnb_value"):
        n = rng.integers(2, 5, size) if kind == "nnb" else np.full(size, 2)
        if kind == "nnb":
            m = totals(size)
            shapes = [lu(1e-2, 5e2, int(k)).tolist() for k in n]
            scale = lu(0.05, 20.0)
        else:
            m = rng.integers(1, 9, size)
            shapes = lu(0.2, 10.0, (size, 2)).tolist()
            scale = lu(0.1, 2.0)
        return list(zip(shapes, scale.tolist(), rng.integers(0, n).tolist(),
                        rng.integers(0, m + 1).tolist(), m.tolist()))

    def make(n, k):
        alpha = lu(0.05, 100.0, (k, n)).tolist()
        x = rng.dirichlet(np.ones(n), k)
        if kind == "dirichlet":
            return zip(alpha, x.tolist())
        y = x[:, :-1] / x[:, -1:]
        return zip(alpha, (y if kind == "inverted" else np.log(y)).tolist())
    return _by_dimension(rng, size, make)


def _defect_request(rng: np.random.Generator):
    # (1-p)^R underflows once R log(1-p) < -745: at p = 1/2 for R > 1075.
    # nb_truncation_bound then spins 10^7 steps (about 3 s) and raises.
    big_r = float(rng.uniform(1200.0, 2000.0))
    m = int(rng.integers(1, 9))
    return ("nnb_value", ([big_r / 2, big_r / 2], 1.0, 0, int(rng.integers(0, m + 1)), m))


def chain_stream(seed: int, count: int = CHAIN_REQUESTS, warmup: bool = False):
    """Return ``(requests, defects)``: a list of ``(kind, args)`` and the
    set of request indices that hit a known defect.

    The timed stream holds exactly one known-defect request, at a seeded
    position; the warm-up stream holds none.
    """
    rng = _rng(seed, _CHAIN_WARMUP if warmup else _CHAIN)
    kinds = rng.choice(len(CHAIN_KINDS), size=count, p=CHAIN_WEIGHTS)
    requests = [None] * count
    for k, kind in enumerate(CHAIN_KINDS):
        where = np.flatnonzero(kinds == k)
        for i, args in zip(where, _chain_batch(kind, rng, where.size)):
            requests[i] = (kind, args)
    defects = set()
    if not warmup:
        index = int(rng.integers(0, count))
        requests[index] = _defect_request(rng)
        defects.add(index)
    return requests, defects


def chain_checked(seed: int, count: int, defects) -> list[int]:
    """Seeded subset of request indices whose outputs go to the oracle;
    it always includes the known-defect requests."""
    rng = _rng(seed, _CHAIN_SUBSET)
    picked = set(rng.choice(count, size=min(count, CHAIN_CHECKED), replace=False).tolist())
    return sorted(picked | set(defects))
