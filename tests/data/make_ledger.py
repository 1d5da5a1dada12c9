"""Write or check the ledger of the verification suite's reports.

    python tests/data/make_ledger.py            # rewrite verify_ledger.jsonl
    python tests/data/make_ledger.py --check    # exit 1 if an entry moved

The ledger holds every report of ``countcomp.checks.run_all`` at quick
seeds 0-9 and full seeds 0 and 11, one JSON line each, with the level and
master seed of its run.  A report has not moved when its ``name``,
``passed``, ``inconclusive``, ``size``, ``seed``, ``threshold`` and
``detail`` are equal to the ledger's, and its ``statistic`` lies within
1e-9 relative of the ledger's (1e-9 absolute below 1).  That is loose
enough to hold across libm and Python versions and tight enough to catch
a change that moves a verdict.  A change that moves an entry on purpose
commits the rewritten ledger and names each moved entry and its reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from countcomp.checks import run_all

LEDGER = Path(__file__).with_name("verify_ledger.jsonl")
RUNS = [("quick", seed) for seed in range(10)] + [("full", 0), ("full", 11)]
EXACT = ("name", "passed", "inconclusive", "size", "seed", "threshold", "detail")
STATISTIC_REL = 1e-9


def reports() -> list[dict]:
    """Every report of the ledger's runs, in ledger order."""
    return [{"level": level, "master_seed": seed, **report.to_json_dict()}
            for level, seed in RUNS for report in run_all(seed, level)]


def read() -> list[dict]:
    with LEDGER.open() as lines:
        return [json.loads(line) for line in lines]


def _same(got, want) -> bool:
    # NaN, the statistic and threshold of a check that raised, equals NaN.
    return got == want or (isinstance(got, float) and isinstance(want, float)
                           and math.isnan(got) and math.isnan(want))


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
        statistic, ledger = g["statistic"], w["statistic"]
        if not (_same(statistic, ledger)
                or abs(statistic - ledger) <= STATISTIC_REL * max(1.0, abs(ledger))):
            lines.append(f"{where}: statistic {statistic!r}, ledger {ledger!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare fresh reports with the ledger instead of rewriting it")
    args = parser.parse_args(argv)
    fresh = reports()
    if not args.check:
        LEDGER.write_text("".join(json.dumps(entry) + "\n" for entry in fresh))
        print(f"wrote {len(fresh)} reports to {LEDGER.name}")
        return 0
    lines = moved(fresh, read())
    for line in lines:
        print(line)
    print(f"{len(lines)} moved of {len(fresh)} reports")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
