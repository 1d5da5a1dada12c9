"""Write or check the ledgers of the suite's reports and of one-point values.

    python tests/data/make_ledger.py            # rewrite both ledgers
    python tests/data/make_ledger.py --check    # exit 1 if an entry moved

``verify_ledger.jsonl`` holds every report of ``countcomp.checks.run_all``
at quick seeds 0-9 and full seeds 0 and 11, one JSON line each, with the
level and master seed of its run.  A report has not moved when its
``name``, ``passed``, ``inconclusive``, ``size``, ``seed``, ``threshold``
and ``detail`` are equal to the ledger's, and its ``statistic`` lies
within 1e-9 relative of the ledger's (1e-9 absolute below 1).

``value_ledger.jsonl`` holds 999 one-point calls of the public mass and
density functions, 111 of each of the nine kinds the chain-eval workload
requests, one JSON line each: the kind, its arguments as plain numbers
and the value.  The arguments are drawn here by numpy's ``Generator``,
not by the library's samplers; a check evaluates the arguments the
ledger holds.  A value has not moved when it lies within 1e-9 relative
of the ledger's (1e-9 absolute below 1), and the truncation bound of the
value PMF is equal.

That is loose enough to hold across libm and Python versions and tight
enough to catch a change that moves a verdict or a value.  A change that
moves an entry on purpose commits the rewritten ledger and names each
moved entry and its reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import countcomp as cc
from countcomp.checks import run_all

LEDGER = Path(__file__).with_name("verify_ledger.jsonl")
VALUE_LEDGER = Path(__file__).with_name("value_ledger.jsonl")
RUNS = [("quick", seed) for seed in range(10)] + [("full", 0), ("full", 11)]
EXACT = ("name", "passed", "inconclusive", "size", "seed", "threshold", "detail")
STATISTIC_REL = 1e-9
VALUE_SEED = 2026
CALLS_PER_KIND = 111
M_MAX = 2000


def reports() -> list[dict]:
    """Every report of the ledger's runs, in ledger order."""
    return [{"level": level, "master_seed": seed, **report.to_json_dict()}
            for level, seed in RUNS for report in run_all(seed, level)]


def read(path: Path = LEDGER) -> list[dict]:
    with path.open() as lines:
        return [json.loads(line) for line in lines]


def _same(got, want) -> bool:
    # NaN, the statistic and threshold of a check that raised, equals NaN.
    return got == want or (isinstance(got, float) and isinstance(want, float)
                           and math.isnan(got) and math.isnan(want))


def _close(got, want) -> bool:
    """The rule for a statistic or a value: equal, or within 1e-9
    relative of the ledger's (1e-9 absolute below 1)."""
    return _same(got, want) or abs(got - want) <= STATISTIC_REL * max(1.0, abs(want))


def moved(got: list[dict], want: list[dict]) -> list[str]:
    """One line for each entry of ``got`` that moved from ``want``."""
    if [(g["level"], g["master_seed"], g["name"]) for g in got] != \
            [(w["level"], w["master_seed"], w["name"]) for w in want]:
        return ["the runs or the report names differ from the ledger's"]
    lines = []
    for g, w in zip(got, want):
        where = f"{g['level']} seed {g['master_seed']} {g['name']}"
        for key in EXACT:
            if not _same(g[key], w[key]):
                lines.append(f"{where}: {key} {g[key]!r}, ledger {w[key]!r}")
        if not _close(g["statistic"], w["statistic"]):
            lines.append(f"{where}: statistic {g['statistic']!r}, ledger {w['statistic']!r}")
    return lines


def _value_pmf(shapes, scale, component, k, m):
    out = cc.normalized_nb_value_pmf(cc.GammaMixtureParams(shapes, scale), component, (k, m))
    return [out.log_mass, out.truncation_bound]


CALLS = {
    "nb": cc.negative_binomial_log_pmf,
    "multinomial": lambda m, probs, x: cc.multinomial_log_pmf(
        m, cc.Composition(probs), cc.CountVector(x)),
    "dm": lambda shapes, m, x: cc.dirichlet_multinomial_log_pmf(shapes, m, cc.CountVector(x)),
    "bb": lambda a, b, m, k: cc.beta_binomial_log_pmf(cc.BetaBinomialParams(a, b, m), k),
    "nnb": lambda shapes, scale, component, k, m: cc.normalized_nb_log_pmf(
        cc.GammaMixtureParams(shapes, scale), component, k, m),
    "nnb_value": _value_pmf,
    "dirichlet": lambda alpha, x: cc.dirichlet_log_pdf(cc.DirichletParams(alpha), cc.Composition(x)),
    "inverted": lambda alpha, y: cc.inverted_dirichlet_log_pdf(
        cc.DirichletParams(alpha), cc.RatioVector(y)),
    "alr": lambda alpha, y: cc.alr_dirichlet_log_pdf(
        cc.DirichletParams(alpha), cc.LogRatioVector(y)),
}


def _draw(kind: str, rng: np.random.Generator) -> list:
    """The arguments of one call of ``kind``, as plain Python numbers."""
    lu = lambda lo, hi, size=None: np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    n = int(rng.integers(2, 11))
    m = int(rng.integers(0, M_MAX + 1))
    if kind == "nb":
        return [float(lu(1e-2, 2e3)), float(rng.uniform(0.02, 0.98)), m]
    if kind == "bb":
        return [float(lu(1e-2, 1e3)), float(lu(1e-2, 1e3)), m, int(rng.integers(0, m + 1))]
    if kind in ("multinomial", "dm"):
        x = rng.multinomial(m, rng.dirichlet(np.ones(n))).tolist()
        if kind == "multinomial":
            return [m, rng.dirichlet(np.ones(n)).tolist(), x]
        return [lu(1e-2, 1e3, n).tolist(), m, x]
    if kind == "nnb":
        n = int(rng.integers(2, 5))
        return [lu(1e-2, 5e2, n).tolist(), float(lu(0.05, 20.0)), int(rng.integers(0, n)),
                int(rng.integers(0, m + 1)), m]
    if kind == "nnb_value":
        m = int(rng.integers(1, 9))
        return [lu(0.2, 10.0, 2).tolist(), float(lu(0.1, 2.0)), int(rng.integers(0, 2)),
                int(rng.integers(0, m + 1)), m]
    alpha = lu(0.05, 100.0, n).tolist()
    x = rng.dirichlet(np.ones(n))
    if kind == "dirichlet":
        return [alpha, x.tolist()]
    y = x[:-1] / x[-1]
    return [alpha, (y if kind == "inverted" else np.log(y)).tolist()]


def value_calls() -> list[dict]:
    """The ledger's calls, ``CALLS_PER_KIND`` of each kind in turn, with
    the arguments drawn from one seeded Generator."""
    rng = np.random.default_rng(VALUE_SEED)
    return [{"kind": kind, "args": _draw(kind, rng)}
            for kind in CALLS for _ in range(CALLS_PER_KIND)]


def values(calls: list[dict]) -> list[dict]:
    """Each call with its value."""
    return [dict(call, value=CALLS[call["kind"]](*call["args"])) for call in calls]


def values_moved(got: list[dict], want: list[dict]) -> list[str]:
    """One line for each value of ``got`` that moved from ``want``."""
    if [(g["kind"], g["args"]) for g in got] != [(w["kind"], w["args"]) for w in want]:
        return ["the calls differ from the ledger's"]
    lines = []
    for g, w in zip(got, want):
        if g["kind"] == "nnb_value":
            (log_mass, bound), (ledger_mass, ledger_bound) = g["value"], w["value"]
            same = _close(log_mass, ledger_mass) and bound == ledger_bound
        else:
            same = _close(g["value"], w["value"])
        if not same:
            lines.append(f"{g['kind']} {g['args']}: value {g['value']!r}, ledger {w['value']!r}")
    return lines


def _write(path: Path, entries: list[dict]) -> None:
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
    print(f"wrote {len(entries)} entries to {path.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports and values with the ledgers instead of "
                             "rewriting them")
    args = parser.parse_args(argv)
    if not args.check:
        _write(LEDGER, reports())
        _write(VALUE_LEDGER, values(value_calls()))
        return 0
    ledger, ledger_values = read(), read(VALUE_LEDGER)
    lines = moved(reports(), ledger)
    value_lines = values_moved(values(ledger_values), ledger_values)
    for line in lines + value_lines:
        print(line)
    print(f"{len(lines)} moved of {len(ledger)} reports")
    print(f"{len(value_lines)} moved of {len(ledger_values)} values")
    return 1 if lines or value_lines else 0


if __name__ == "__main__":
    sys.exit(main())
