"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test prints a single pass/fail line (run ``pytest -s`` to see them
on success; pytest shows captured output on failure anyway).  Stated
runtime budgets are asserted alongside the numerical tolerances.  The
criteria call the verification suite's own check functions at the
criterion's sizes, so each identity has one definition.
"""

import subprocess
import sys
import time

import numpy as np

from countcomp import GammaMixtureParams
from countcomp.checks import (
    _check_beta_binomial_merge,
    _check_conditional_multinomial,
    _check_dm_normalization,
    _check_jacobian_fd,
    _check_nb_mixture,
    _check_normalized_nb_mass,
    _check_pi_independent_of_s,
    _check_round_trips,
    _transform_pointwise,
)


def _verdict(num: int, description: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {description} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_change_of_variables_ratio():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    rep = _transform_pointwise("ratio", "ratio", 1000, rng, 20260801)
    elapsed = time.perf_counter() - start
    _verdict(
        1, "ratio change of variables, 1000 points per n=2..6",
        rep.passed and elapsed < 1.0,
        f"max rel err {rep.statistic:.3e} <= 1e-12, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_change_of_variables_log_ratio():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    rep = _transform_pointwise("alr", "alr", 1000, rng, 20260802)
    elapsed = time.perf_counter() - start
    _verdict(
        2, "log-ratio change of variables, 1000 points per n=2..6",
        rep.passed and elapsed < 1.0,
        f"max rel err {rep.statistic:.3e} <= 1e-12, {elapsed:.2f}s < 1s",
    )


def test_criterion_03_jacobians_vs_finite_differences():
    rng = np.random.default_rng(20260803)
    start = time.perf_counter()
    reps = [_check_jacobian_fd(tr, tr, 100, rng, 20260803) for tr in ("ratio", "alr")]
    elapsed = time.perf_counter() - start
    _verdict(
        3, "closed-form Jacobians vs central differences, 100 points per n=2..6",
        all(rep.passed for rep in reps) and elapsed < 5.0,
        f"max rel err {max(rep.statistic for rep in reps):.3e} <= 1e-6, {elapsed:.2f}s < 5s",
    )


def test_criterion_04_dm_normalization():
    rng = np.random.default_rng(20260804)
    start = time.perf_counter()
    rep = _check_dm_normalization("dm", 12, 20, rng, 20260804)
    elapsed = time.perf_counter() - start
    _verdict(
        4, "Dirichlet-multinomial normalization, n<=4, m<=12, 20 shape draws",
        rep.passed and elapsed < 10.0,
        f"max |log mass| {rep.statistic:.3e} <= 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_05_beta_binomial_is_merged_dm():
    rng = np.random.default_rng(20260805)
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        shapes = rng.uniform(0.3, 4.0, size=n)
        for m in range(0, 13):
            rep = _check_beta_binomial_merge("merge", shapes, m, 0, None, -1)
            worst = max(worst, rep.statistic)
    elapsed = time.perf_counter() - start
    _verdict(
        5, "beta-binomial equals merged DM marginal, n<=5, m<=12",
        worst <= 1e-10 and elapsed < 10.0,
        f"max rel err {worst:.3e} <= 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_06_poisson_gamma_mixture_is_nb():
    start = time.perf_counter()
    settings = ((2.0, 1.0), (1.0, 0.5), (3.5, 0.8), (0.7, 2.0), (5.0, 0.3))
    p_values = []
    for i, (big_r, theta) in enumerate(settings):
        rng = np.random.default_rng(20260806 + i)
        rep = _check_nb_mixture("nb", big_r, theta, 100_000, rng, 20260806 + i)
        p_values.append(rep.statistic)
    elapsed = time.perf_counter() - start
    ok = all(p > 0.001 for p in p_values)
    _verdict(
        6, "Poisson-Gamma mixture matches NB PMF, chi-square at 1e5 draws x5",
        ok and elapsed < 10.0,
        f"min p {min(p_values):.4f} > 0.001, {elapsed:.2f}s < 10s",
    )


def test_criterion_07_conditional_poisson_is_multinomial():
    start = time.perf_counter()
    rng = np.random.default_rng(20260807)
    rep1 = _check_conditional_multinomial("n2", (1.0, 1.0), 2, 100_000, rng, 20260807)
    rep2 = _check_conditional_multinomial("n3", (2.0, 1.0, 1.0), 3, 100_000, rng, 20260807)
    elapsed = time.perf_counter() - start
    ok = rep1.passed and rep2.passed and not (rep1.inconclusive or rep2.inconclusive)
    _verdict(
        7, "conditioned Poisson vectors are multinomial, two settings",
        ok and elapsed < 30.0,
        f"p-values {rep1.statistic:.4f}, {rep2.statistic:.4f} > 0.001, {elapsed:.2f}s < 30s",
    )


def test_criterion_08_pi_independent_of_total():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    params = GammaMixtureParams((1.0, 1.0), 1.0)
    rep = _check_pi_independent_of_s("pi", params, False, 100_000, rng, 20260808)
    control = _check_pi_independent_of_s("control", params, True, 10_000, rng, 20260808)
    elapsed = time.perf_counter() - start
    _verdict(
        8, "pi independent of S; constructed dependence rejected",
        rep.passed and control.passed and elapsed < 10.0,
        f"p {rep.statistic:.4f} > 0.001, control p {control.statistic:.2e} < 0.001, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_09_normalized_nb_total_mass():
    start = time.perf_counter()
    reps = [
        _check_normalized_nb_mass("mass", shapes, theta, 0, None, -1)
        for shapes, theta in (((1.0, 1.0), 1.0), ((2.5, 1.5, 1.0), 0.7), ((0.8, 1.7), 2.0))
    ]
    elapsed = time.perf_counter() - start
    _verdict(
        9, "normalized-NB pair masses sum to 1 (NB tail < 1e-12), three settings",
        all(rep.passed for rep in reps) and elapsed < 5.0,
        f"max |mass-1| {max(rep.statistic for rep in reps):.3e} <= 1e-9, {elapsed:.2f}s < 5s",
    )


def test_criterion_10_round_trips_and_determinism():
    round_trips = _check_round_trips("round-trips", 200, np.random.default_rng(20260810), 20260810)

    cmd = [sys.executable, "-W", "error", "-m", "countcomp.cli",
           "verify", "--seed", "7", "--level", "quick"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    mid = time.perf_counter()
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    end = time.perf_counter()
    runs_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    slowest = max(mid - start, end - mid)
    _verdict(
        10, "transform round trips within 1e-12; quick verify byte-identical",
        round_trips.passed and runs_ok and slowest < 60.0,
        f"max round-trip err {round_trips.statistic:.3e} <= 1e-12, "
        f"byte-identical={first.stdout == second.stdout}, "
        f"slowest quick run {slowest:.1f}s < 60s",
    )
