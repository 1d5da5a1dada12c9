"""Output checkers, on the benchmark side: scipy and independent numpy
arithmetic, never the library under test.

Every checker returns ``None`` for a right output and a one-line reason
otherwise.  ``run.py`` imports this module only after set-up has been
measured, so scipy's import cannot hide a lazy-import gain.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special, stats

EVAL_TOL = 1e-10
ROUND_TRIP_TOL = 1e-12
MEAN_Z = 5.0

VERIFY_NAMES = frozenset((
    "change-of-variables-ratio", "jacobian-finite-difference-ratio", "determinant-lemma-ratio",
    "change-of-variables-alr", "jacobian-finite-difference-alr", "determinant-lemma-alr",
    "transform-round-trips", "transform-ks-ratio-alpha1-1", "transform-ks-alr-alpha2-3",
    "conditional-multinomial-n2-m2", "conditional-multinomial-n3-m3",
    "conditional-multinomial-scale-invariance", "pi-independence-r1-1-theta1",
    "pi-independence-r3-2-theta0.5", "pi-independence-negative-control",
    "dm-integral-n3-m2", "dm-integral-n2-m5", "beta-binomial-merge-n3-m4",
    "beta-binomial-merge-n3-m7", "beta-binomial-merge-n2-m6", "nb-mixture-chisq-R2-theta1",
    "nb-mixture-chisq-R1-theta0.5", "nb-mixture-chisq-R3.5-theta0.8",
    "nb-mixture-chisq-R0.7-theta2", "nb-mixture-chisq-R5-theta0.3",
    "gamma-common-scale-sum-ks-r1.3+2.2-theta0.7", "poisson-superposition-chisq-1.5+2.5",
    "multinomial-normalization", "dirichlet-multinomial-normalization",
    "dirichlet-multinomial-symmetry", "negative-binomial-normalization",
    "normalized-nb-mass-r1-1-theta1", "normalized-nb-mass-r2.5-1.5-1-theta0.7",
    "normalized-nb-mass-r0.8-1.7-theta2", "normalized-nb-value-partition",
    "alr-density-normalization-quadrature",
))
# Reports of sampling checks; their ``size`` is a number of draws.
STATISTICAL_PREFIXES = ("transform-ks-", "conditional-multinomial-n", "pi-independence-r",
                        "dm-integral-", "nb-mixture-", "gamma-common-scale-sum-",
                        "poisson-superposition-")


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


# ---------------------------------------------------------------------------
# Reference log densities and masses (library NB convention: p multiplies p^m)
# ---------------------------------------------------------------------------


def nb_logpmf(big_r, p, m):
    return stats.nbinom.logpmf(m, big_r, 1.0 - p)


def normalized_nb_logpmf(shapes, scale, component, k, m):
    big_r = float(np.sum(shapes))
    out = nb_logpmf(big_r, scale / (1.0 + scale), m)
    if m > 0:
        a = float(shapes[component])
        out += stats.betabinom.logpmf(k, m, a, big_r - a)
    return float(out)


def _composition(x):
    x = np.asarray(x, float)
    return x / x.sum()


def dirichlet_logpdf(alpha, x):
    return float(stats.dirichlet.logpdf(_composition(x), alpha))


def inverted_dirichlet_logpdf(alpha, y):
    y = np.asarray(y, float)
    z = 1.0 + y.sum()
    return dirichlet_logpdf(alpha, np.append(y, 1.0) / z) - len(alpha) * math.log(z)


def alr_dirichlet_logpdf(alpha, y):
    y = np.asarray(y, float)
    log_k = float(special.logsumexp(np.append(y, 0.0)))
    x = np.exp(np.append(y, 0.0) - log_k)
    return dirichlet_logpdf(alpha, x) + float(y.sum()) - len(alpha) * log_k


def eval_reference(dist: str, params: dict, point) -> float:
    if dist == "dirichlet":
        return dirichlet_logpdf(params["alpha"], point)
    if dist == "inverted-dirichlet":
        return inverted_dirichlet_logpdf(params["alpha"], point)
    if dist == "alr-dirichlet":
        return alr_dirichlet_logpdf(params["alpha"], point)
    if dist == "negative-binomial":
        return float(nb_logpmf(params["R"], params["p"], point[0]))
    if dist == "multinomial":
        return float(stats.multinomial.logpmf(point, sum(point), _composition(params["probs"])))
    if dist == "dirichlet-multinomial":
        return float(stats.dirichlet_multinomial.logpmf(point, params["shapes"], sum(point)))
    if dist == "beta-binomial":
        return float(stats.betabinom.logpmf(point[0], params["m"], params["a"], params["b"]))
    if dist == "normalized-nb":
        return normalized_nb_logpmf(params["shapes"], params["scale"], params["component"],
                                    point[0], point[1])
    raise ValueError(f"no reference for {dist}")


# ---------------------------------------------------------------------------
# cli-stream
# ---------------------------------------------------------------------------


def check_eval(spec: dict, rc: int, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    try:
        record = json.loads(out)
    except ValueError:
        return "output is not one JSON object"
    if record.get("dist") != spec["dist"] or record.get("point") != spec["point"]:
        return "dist or point not echoed"
    got = record.get("logValue")
    if not isinstance(got, (int, float)):
        return "no logValue"
    err = _rel_err(got, eval_reference(spec["dist"], spec["params"], spec["point"]))
    if err > EVAL_TOL:
        return f"logValue off the scipy reference by {err:.3g} relative"
    if "value" in record and _rel_err(record["value"], math.exp(got)) > EVAL_TOL:
        return "value is not exp(logValue)"
    return None


def parse_csv(out: bytes):
    lines = out.decode().splitlines()
    if not lines:
        return [], np.empty((0, 0))
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], float)
    return header, rows.reshape(len(lines) - 1, len(header))


def _moments(dist: str, params: dict):
    """Analytic column means and variances of one sampled row."""
    if dist == "dirichlet":
        a = np.asarray(params["alpha"], float)
        a0 = a.sum()
        return a / a0, a * (a0 - a) / (a0 * a0 * (a0 + 1.0))
    if dist == "gamma":
        k, theta = params["shape"], params["scale"]
        return np.array([k * theta]), np.array([k * theta * theta])
    if dist == "poisson":
        return np.array([params["rate"]]), np.array([params["rate"]])
    if dist == "negative-binomial":
        big_r, theta = params["R"], params["theta"]
        return np.array([big_r * theta]), np.array([big_r * theta * (1.0 + theta)])
    p, m = _composition(params["probs"]), params["m"]
    return m * p, m * p * (1.0 - p)


def check_sample(spec: dict, rc: int, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    dist, params, count = spec["dist"], spec["params"], spec["count"]
    mean, var = _moments(dist, params)
    try:
        header, rows = parse_csv(out)
    except ValueError:
        return "output is not numeric CSV"
    want = [f"x{i + 1}" for i in range(mean.size)] if mean.size > 1 else ["value"]
    if header != want or rows.shape != (count, mean.size):
        return f"expected {count} rows under {want}, got {rows.shape} under {header}"
    if dist == "dirichlet" and (np.any(rows <= 0) or _rel_err(rows.sum(axis=1), 1.0) > 1e-12):
        return "a Dirichlet row is not a composition"
    if dist in ("poisson", "negative-binomial", "multinomial") and (
            np.any(rows < 0) or np.any(rows != np.floor(rows))):
        return "a count is not a non-negative integer"
    if dist == "multinomial" and np.any(rows.sum(axis=1) != params["m"]):
        return "a multinomial row does not sum to m"
    if dist == "gamma" and np.any(rows <= 0):
        return "a Gamma draw is not positive"
    z = np.abs(rows.mean(axis=0) - mean) / np.sqrt(var / count)
    if np.any(z > MEAN_Z):
        return f"column mean {float(z.max()):.2f} standard errors from the analytic mean"
    return None


def _ratio(x):
    return x[:, :-1] / x[:, -1:]


def _forward(kind, x):
    y = _ratio(x) if kind == "ratio" else np.log(x[:, :-1]) - np.log(x[:, -1:])
    n = x.shape[1]
    if kind == "ratio":
        jac = -n * np.log1p(y.sum(axis=1))
    else:
        jac = y.sum(axis=1) - n * special.logsumexp(
            np.concatenate([y, np.zeros((len(y), 1))], axis=1), axis=1)
    return y, jac


def check_transform(spec: dict, rc: int, out: bytes):
    """Forward output must match independent coordinates; inverse output
    (fed the forward output) must round-trip to the original rows."""
    if rc != 0:
        return f"exit code {rc}"
    x = spec["x"] / spec["x"].sum(axis=1, keepdims=True)
    y, jac = _forward(spec["transform"], x)
    try:
        header, rows = parse_csv(out)
    except ValueError:
        return "output is not numeric CSV"
    if rows.shape[0] != x.shape[0]:
        return f"expected {x.shape[0]} rows, got {rows.shape[0]}"
    if header[-1:] != ["log_det_jacobian_inverse"]:
        return "no Jacobian column"
    if spec["direction"] == "forward":
        if rows.shape[1] != y.shape[1] + 1:
            return "wrong number of columns"
        if _rel_err(rows[:, :-1], y) > ROUND_TRIP_TOL:
            return f"forward coordinates off by {_rel_err(rows[:, :-1], y):.3g}"
    else:
        if rows.shape[1] != x.shape[1] + 1:
            return "wrong number of columns"
        worst = float(np.max(np.abs(rows[:, :-1] / x - 1.0)))
        if worst > ROUND_TRIP_TOL:
            return f"round trip off by {worst:.3g} relative"
    if _rel_err(rows[:, -1], jac) > ROUND_TRIP_TOL:
        return f"log-Jacobian off by {_rel_err(rows[:, -1], jac):.3g}"
    return None


# ---------------------------------------------------------------------------
# verify-quick
# ---------------------------------------------------------------------------


def verify_reports(out: bytes) -> list[dict]:
    return [json.loads(line) for line in out.decode().splitlines() if line.strip()]


def check_verify(rc: int, out: bytes):
    if rc != 0:
        return f"exit code {rc}"
    try:
        reports = verify_reports(out)
    except ValueError:
        return "a line is not JSON"
    if len(reports) != len(VERIFY_NAMES):
        return f"{len(reports)} report lines, expected {len(VERIFY_NAMES)}"
    names = {r.get("name") for r in reports}
    if names != VERIFY_NAMES:
        return f"unexpected check names: {sorted(names ^ VERIFY_NAMES)[:3]}"
    bad = [r["name"] for r in reports if not (r.get("passed") or r.get("inconclusive"))]
    if bad:
        return f"checks failed: {bad[:3]}"
    return None


# ---------------------------------------------------------------------------
# chain-eval
# ---------------------------------------------------------------------------


def chain_reference(kind: str, args):
    if kind == "nb":
        return float(nb_logpmf(*args))
    if kind == "multinomial":
        m, probs, x = args
        return float(stats.multinomial.logpmf(x, m, _composition(probs)))
    if kind == "dm":
        shapes, m, x = args
        return float(stats.dirichlet_multinomial.logpmf(x, shapes, m))
    if kind == "bb":
        a, b, m, k = args
        return float(stats.betabinom.logpmf(k, m, a, b))
    if kind == "nnb":
        return normalized_nb_logpmf(*args)
    if kind == "dirichlet":
        return dirichlet_logpdf(*args)
    if kind == "inverted":
        return inverted_dirichlet_logpdf(*args)
    if kind == "alr":
        return alr_dirichlet_logpdf(*args)
    raise ValueError(f"no reference for {kind}")


def check_chain(kind: str, args, got):
    if not isinstance(got, (int, float, list)):
        return f"raised {got}"
    if kind != "nnb_value":
        err = _rel_err(got, chain_reference(kind, args))
        return None if err <= EVAL_TOL else f"{kind}: off the scipy reference by {err:.3g}"
    shapes, scale, component, k, m = args
    log_mass, bound = got
    big_r, p = float(np.sum(shapes)), scale / (1.0 + scale)
    # Independent truncation check: the NB tail past the bound is < 1e-12.
    if stats.nbinom.sf(bound, big_r, 1.0 - p) > 1.01e-12:
        return "nnb_value: NB tail beyond the truncation bound exceeds 1e-12"
    g = math.gcd(k, m)
    j = np.arange(1, bound // (m // g) + 1)
    terms = [normalized_nb_logpmf(shapes, scale, component, int(t * (k // g)), int(t * (m // g)))
             for t in j]
    want = float(special.logsumexp(terms)) if terms else -math.inf
    err = 0.0 if want == log_mass == -math.inf else _rel_err(log_mass, want)
    return None if err <= EVAL_TOL else f"nnb_value: off the scipy reference by {err:.3g}"
