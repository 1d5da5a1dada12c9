"""chain-eval evaluator: one process, one closed-loop client.

Run by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``::

    python perfbench/chain_worker.py --seed S --mode setup|measure|trace \
        [--seconds T] [--spans PATH]

It imports countcomp, generates the request stream from the seed and
warms up, then prints ``ready``; ``run.py`` times set-up up to that
line.  ``setup`` stops there.  ``measure`` runs whole passes over the
stream until ``--seconds`` have passed, timing every request.
Measured walls and latencies are corrected for drift in this CPU's
speed by a fixed kernel timed between blocks of requests (see
``speed.py``).  ``trace`` runs one untraced pass, installs the spans of
``spans.py`` and runs one traced pass.  The last line of output is one
JSON object.

A request builds the objects the public API asks for from raw numbers
and makes one call; a raise counts as a failed request and its time
still counts.  This process never imports scipy itself.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from speed import KERNEL_NOMINAL_S, kernel


def _ops(cc):
    # Attribute lookups happen at call time, so installed spans are seen.
    def value_pmf(shapes, scale, component, k, m):
        out = cc.normalized_nb_value_pmf(cc.GammaMixtureParams(shapes, scale), component, (k, m))
        return [out.log_mass, out.truncation_bound]

    return {
        "nb": lambda big_r, p, m: cc.negative_binomial_log_pmf(big_r, p, m),
        "multinomial": lambda m, probs, x: cc.multinomial_log_pmf(
            m, cc.Composition(probs), cc.CountVector(x)),
        "dm": lambda shapes, m, x: cc.dirichlet_multinomial_log_pmf(
            shapes, m, cc.CountVector(x)),
        "bb": lambda a, b, m, k: cc.beta_binomial_log_pmf(cc.BetaBinomialParams(a, b, m), k),
        "nnb": lambda shapes, scale, component, k, m: cc.normalized_nb_log_pmf(
            cc.GammaMixtureParams(shapes, scale), component, k, m),
        "nnb_value": value_pmf,
        "dirichlet": lambda alpha, x: cc.dirichlet_log_pdf(
            cc.DirichletParams(alpha), cc.Composition(x)),
        "inverted": lambda alpha, y: cc.inverted_dirichlet_log_pdf(
            cc.DirichletParams(alpha), cc.RatioVector(y)),
        "alr": lambda alpha, y: cc.alr_dirichlet_log_pdf(
            cc.DirichletParams(alpha), cc.LogRatioVector(y)),
    }


BLOCK = 1000


def run_pass(requests, ops, checked=(), tracer=None, calibrate=False):
    """One closed-loop pass.  Returns (block walls, kernel times,
    latencies, failures, values); with ``calibrate`` the kernel runs
    before every block of ``BLOCK`` requests and once after the last,
    outside the timed blocks."""
    clock = time.perf_counter
    latencies = np.empty(len(requests))
    failures, values, blocks, kernels = [], {}, [], []
    checked = set(checked)
    block_start = None
    for i, (kind, args) in enumerate(requests):
        if i % BLOCK == 0:
            if block_start is not None:
                blocks.append(clock() - block_start)
            if calibrate:
                kernels.append(kernel())
            block_start = clock()
        if tracer is not None:
            tracer.op = i
        fn = ops[kind]
        t = clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed request is measured, not fatal
            value = f"{type(exc).__name__}: {exc}"
            failures.append(i)
        latencies[i] = clock() - t
        if i in checked:
            values[i] = value
    blocks.append(clock() - block_start)
    if calibrate:
        kernels.append(kernel())
    return blocks, kernels, latencies, failures, values


def corrected(blocks, kernels, latencies):
    """Scale each block by nominal / mean kernel time around it; returns
    (corrected wall, corrected latencies)."""
    k = np.asarray(kernels)
    scales = KERNEL_NOMINAL_S * 2.0 / (k[:-1] + k[1:])
    return float(np.dot(blocks, scales)), latencies * np.repeat(scales, BLOCK)[:latencies.size]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import countcomp as cc

    if Path(cc.__file__).resolve().parent != Path(args.src).resolve() / "countcomp":
        print(f"countcomp resolves to {cc.__file__}, not under {args.src}", file=sys.stderr)
        return 1
    requests, defects = workloads.chain_stream(args.seed)
    warmup, _ = workloads.chain_stream(args.seed, workloads.CHAIN_WARMUP, warmup=True)
    checked = workloads.chain_checked(args.seed, len(requests), defects)
    ops = _ops(cc)
    run_pass(warmup, ops)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        walls, raw_walls, latencies, kernels, failed = [], [], [], [], 0
        values = failures = None
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin + np.mean(raw_walls) <= args.seconds:
            blocks, ks, lat, fails, vals = run_pass(
                requests, ops, checked if values is None else (), calibrate=True)
            if values is None:
                values, failures = vals, fails
            wall, lat = corrected(blocks, ks, lat)
            walls.append(wall)
            raw_walls.append(sum(blocks))
            latencies.append(lat)
            kernels.extend(ks)
            failed += len(fails)
        lat = np.concatenate(latencies)
        result = {"walls": walls, "raw_walls": raw_walls, "kernel_s": float(np.median(kernels)),
                  "p50_s": float(np.percentile(lat, 50)), "p99_s": float(np.percentile(lat, 99)),
                  "requests": lat.size}
    else:
        import spans

        blocks, ks, lat, _, _ = run_pass(requests, ops, calibrate=True)
        untraced = corrected(blocks, ks, lat)[0]
        tracer = spans.Tracer()
        spans.install(tracer)
        blocks, ks, lat, failures, values = run_pass(requests, ops, checked, tracer, True)
        failed = len(failures)
        walls = [untraced, corrected(blocks, ks, lat)[0]]
        result = {"walls": walls, "summary": tracer.summary()}
        if args.spans:
            tracer.dump(args.spans)
    result.update({
        "attempted": len(requests) * (len(walls) if args.mode == "measure" else 1),
        "failed": failed,
        "failures": failures,
        "values": {str(i): v for i, v in values.items()},
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
