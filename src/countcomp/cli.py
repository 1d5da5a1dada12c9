"""Command-line front end: evaluate, sample, transform, verify.

Machine-readable throughout: one JSON object per ``eval``, CSV with a
header for ``sample`` and ``transform`` (stdin to stdout), JSON lines
for ``verify``.  Floats are printed with full round-trip precision, so
piping outputs back in loses nothing.  Exit codes: 0 success, 1 domain
or verification failure, 2 usage error.  Running out of memory exits 1
with one ``error: out of memory`` line.

``transform`` reads its input in blocks of 10^4 lines; memory grows by
about 8 bytes per value and per row, plus one block of text, and peaks
at about 16 bytes per value while the blocks are joined.  Every row
is read and mapped, and every draw of ``sample`` made and checked,
before the first byte is written, so a failing run leaves stdout empty.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import sys
import warnings

import numpy as np

from . import distributions as dist
from .simplex import (
    Composition,
    LogRatioVector,
    RatioVector,
    RowError,
    log_ratio_forward_rows,
    log_ratio_inverse_rows,
    ratio_forward_rows,
    ratio_inverse_rows,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Malformed input: bad JSON/CSV, unknown names, wrong arity."""


_CSV_BLOCK_ROWS = 10_000


def _write_csv(out, header: list[str], *columns: np.ndarray) -> None:
    """Write a header and the rows of 1-D and 2-D arrays side by side, one
    block of rows at a time: a block is stacked, then formatted by one
    ``%r`` template.  ``tolist`` gives Python floats and ints, whose
    ``repr`` is a float's shortest round-trip text and an int's digits."""
    out.write(",".join(header) + "\n")
    line = ",".join(["%r"] * len(header)) + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([part[start : start + _CSV_BLOCK_ROWS] for part in columns])
        out.write((line * len(block)) % tuple(block.ravel().tolist()))


def _load_params(args) -> dict:
    if (args.params is None) == (args.params_file is None):
        raise UsageError("exactly one of --params or --params-file is required")
    text = args.params
    if args.params_file is not None:
        try:
            with open(args.params_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read params file: {exc}") from exc
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"params are not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise UsageError("params must be a JSON object")
    return params


def _require_keys(params: dict, required: set[str], dist_name: str) -> None:
    keys = set(params)
    missing = required - keys
    unknown = keys - required
    if missing:
        raise UsageError(f"{dist_name} params missing keys: {sorted(missing)}")
    if unknown:
        raise UsageError(f"{dist_name} params has unknown keys: {sorted(unknown)}")


# JSON values arrive as exact int, float and bool; ``type`` is compared,
# not ``isinstance``, because a bool is an int in Python.


def _vector(params: dict, key: str):
    value = params[key]
    if type(value) is not list or not all(type(v) in (int, float) for v in value):
        raise UsageError(f"param '{key}' must be a JSON array of numbers")
    return [float(v) for v in value]


def _number(params: dict, key: str) -> float:
    value = params[key]
    if type(value) not in (int, float):
        raise UsageError(f"param '{key}' must be a number")
    return float(value)


def _integer(params: dict, key: str) -> int:
    value = params[key]
    if type(value) is not int:
        raise UsageError(f"param '{key}' must be an integer")
    return value


def _parse_point(text: str, want: str):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise UsageError("empty --point")
    try:
        if want == "ints":
            return [int(p) for p in parts]
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--point is not a comma-separated {want} list: {text!r}") from exc


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _dirichlet(params: dict) -> dist.DirichletParams:
    return dist.DirichletParams(_vector(params, "alpha"))


def _gamma_mixture(params: dict) -> dist.GammaMixtureParams:
    return dist.GammaMixtureParams(_vector(params, "shapes"), _number(params, "scale"))


# The counts are checked before the parameters are read.
def _multinomial(params: dict, point: list) -> float:
    x = dist.CountVector(point)
    return dist.multinomial_log_pmf(x.total, Composition(_vector(params, "probs")), x)


def _dirichlet_multinomial(params: dict, point: list) -> float:
    x = dist.CountVector(point)
    return dist.dirichlet_multinomial_log_pmf(_vector(params, "shapes"), x.total, x)


# name: (parameter keys, "floats" or "ints" point, None or the point's
# length and the words a usage error gives it, (params, point) -> log value).
# A new distribution is one entry; the order is that of the error messages.
_EVAL = {
    "dirichlet": ({"alpha"}, "floats", None, lambda p, x: (
        dist.dirichlet_log_pdf(_dirichlet(p), Composition(x)))),
    "inverted-dirichlet": ({"alpha"}, "floats", None, lambda p, y: (
        dist.inverted_dirichlet_log_pdf(_dirichlet(p), RatioVector(y)))),
    "alr-dirichlet": ({"alpha"}, "floats", None, lambda p, y: (
        dist.alr_dirichlet_log_pdf(_dirichlet(p), LogRatioVector(y)))),
    "negative-binomial": ({"R", "p"}, "ints", (1, "a single integer point m"), lambda p, m: (
        dist.negative_binomial_log_pmf(_number(p, "R"), _number(p, "p"), m[0]))),
    "multinomial": ({"probs"}, "ints", None, _multinomial),
    "dirichlet-multinomial": ({"shapes"}, "ints", None, _dirichlet_multinomial),
    "beta-binomial": ({"a", "b", "m"}, "ints", (1, "a single integer point k"), lambda p, k: (
        dist.beta_binomial_log_pmf(
            dist.BetaBinomialParams(_number(p, "a"), _number(p, "b"), _integer(p, "m")), k[0]))),
    "normalized-nb": ({"shapes", "scale", "component"}, "ints", (2, "an integer pair point k,m"),
                      lambda p, km: dist.normalized_nb_log_pmf(
                          _gamma_mixture(p), _integer(p, "component"), *km)),
}


def _eval_log_value(name: str, params: dict, point_text: str) -> tuple[float, list]:
    if name not in _EVAL:
        raise UsageError(f"unknown distribution {name!r}; choose from {', '.join(_EVAL)}")
    keys, want, length, log_value = _EVAL[name]
    _require_keys(params, keys, name)
    point = _parse_point(point_text, want)
    if length is not None and len(point) != length[0]:
        raise UsageError(f"{name} expects {length[1]}")
    return log_value(params, point), point


def _cmd_eval(args, out) -> int:
    params = _load_params(args)
    log_value, point = _eval_log_value(args.dist, params, args.point)
    record = {
        "dist": args.dist,
        "params": params,
        "point": point,
        "logValue": log_value,
    }
    # The linear value is plain exponentiation; omit it when float64
    # cannot represent it (underflow to 0 or overflow past exp(709.78)).
    if not args.log and log_value <= 709.78:
        linear = math.exp(log_value)
        if linear > 0.0:
            record["value"] = linear
    out.write(json.dumps(record) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _nb_mixture(params: dict) -> tuple[float, float]:
    if "R" in params:
        return _number(params, "R"), _number(params, "theta")
    gm = _gamma_mixture(params)
    return gm.total_shape, gm.scale


def _multinomial_args(params: dict) -> tuple[int, Composition]:
    probs = Composition(_vector(params, "probs"))
    return _integer(params, "m"), probs


# name: (the parameter key sets, one or more; params -> the sampler's
# leading arguments; the library sampler, called with them, the rng and
# size=count).  The arguments are read before any draw, so a bad
# parameter is not reported as a row.  The order is that of the error
# messages.
_SAMPLE = {
    "dirichlet": (({"alpha"},), lambda p: (_dirichlet(p),), dist.dirichlet_sample),
    "gamma": (({"shape", "scale"},), lambda p: (_number(p, "shape"), _number(p, "scale")),
              dist.gamma_sample),
    "poisson": (({"rate"},), lambda p: (_number(p, "rate"),), dist.poisson_sample),
    "negative-binomial": (({"R", "theta"}, {"shapes", "scale"}), _nb_mixture,
                          dist.negative_binomial_sample_via_mixture),
    "multinomial": (({"probs", "m"},), _multinomial_args, dist.multinomial_sample),
}


def _cmd_sample(args, out) -> int:
    params = _load_params(args)
    count = args.count
    if count < 0:
        raise UsageError("--count must be non-negative")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    rng = np.random.default_rng(args.seed)
    name = args.dist
    if name not in _SAMPLE:
        known = ", ".join(_SAMPLE)
        if name in _EVAL:
            raise ValueError(f"no sampler for {name!r}; samplers exist for {known}")
        raise UsageError(f"unknown distribution {name!r}; samplers exist for {known}")
    key_sets, read, sampler = _SAMPLE[name]
    if len(key_sets) == 1:
        _require_keys(params, key_sets[0], name)
    elif set(params) not in key_sets:
        forms = " or ".join(str(sorted(keys)) for keys in key_sets)
        raise UsageError(f"{name} params need keys {forms}, got {sorted(params)}")
    leading = read(params)
    # Every row is drawn and checked before any is written.
    try:
        rows = sampler(*leading, rng, size=count)
    except RowError as exc:
        raise ValueError(f"row {exc.row + 1}: {exc}") from exc
    # A scalar law draws a 1-D array, a vector law (count, n) rows.
    header = [f"x{i + 1}" for i in range(rows.shape[1])] if rows.ndim == 2 else ["value"]
    _write_csv(out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

_TRANSFORMS = {
    ("ratio", "forward"): (ratio_forward_rows, "y"),
    ("ratio", "inverse"): (ratio_inverse_rows, "x"),
    ("alr", "forward"): (log_ratio_forward_rows, "y"),
    ("alr", "inverse"): (log_ratio_inverse_rows, "x"),
}


def _read_lines(lines, start: int, first, header_allowed: bool = False):
    """The CSV rules, one line at a time, on ``lines`` numbered from
    ``start``.  Blank lines are skipped.  When ``header_allowed``, a first
    non-blank line that is not numeric is a header and skipped.  ``first``
    is (line number, column count) of the table's first row, or None
    before it; every row must have its column count.

    Returns the line numbers and the rows read, as an int array and a 2-D
    float array, and ``first``."""
    numbers, rows = [], []
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError as exc:
            if header_allowed:
                header_allowed = False
                continue  # header row
            raise UsageError(f"row {lineno}: not numeric CSV: {line!r}") from exc
        header_allowed = False
        if first is None:
            first = (lineno, len(row))
        elif len(row) != first[1]:
            raise UsageError(f"row {lineno}: {len(row)} columns, but row {first[0]} has {first[1]}")
        numbers.append(lineno)
        rows.append(row)
    width = 0 if first is None else first[1]
    return (np.array(numbers, dtype=np.int64),
            np.array(rows, dtype=float).reshape(len(rows), width), first)


def _parse_block(block: list[str], first) -> np.ndarray | None:
    """One block of lines by numpy's C parser, which converts a field as
    ``float`` does, by ``PyOS_string_to_double``.  Returns None, for
    ``_read_lines`` to read the block, unless every line is a row of the
    table's width: the parser refuses what ``float`` might accept (``1_0``,
    non-ASCII digits), and skips empty lines.  A block with a carriage
    return other than in a CRLF ending goes to ``_read_lines`` too: the
    parser may end a row there, where ``_read_lines`` keeps it in the
    line."""
    if any(map(operator.contains, block, itertools.repeat("\r"))):
        crlf = sum(map(str.endswith, block, itertools.repeat("\r\n")))
        if sum(map(str.count, block, itertools.repeat("\r"))) != crlf:
            return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a block of empty lines warns
        try:
            rows = np.loadtxt(block, delimiter=",", comments=None, ndmin=2, dtype=float)
        except (ValueError, UserWarning):
            return None
    if len(rows) != len(block) or (first is not None and rows.shape[1] != first[1]):
        return None
    return rows


def _read_csv(stream) -> tuple[np.ndarray, np.ndarray]:
    """Numeric CSV rows as an (N, n) float array, with the line number of
    each row as an int array, by the rules of ``_read_lines``.

    The lines up to the first non-blank one, which may be a header, go to
    ``_read_lines``.  The rest are read in blocks of ``_CSV_BLOCK_ROWS``
    lines, each by ``_parse_block`` where it can and by ``_read_lines``
    where it cannot, so both give the same values, line numbers and
    errors.  Memory holds the values read, 8 bytes each, their line
    numbers, 8 bytes each, and one block of text; joining the blocks at
    the end holds the values twice for a moment."""
    lines = iter(stream)
    head = []
    for line in lines:
        head.append(line)
        if line.strip():
            break
    numbers, rows, first = _read_lines(head, 1, None, header_allowed=True)
    number_chunks, row_chunks = [numbers], [rows]
    start = len(head) + 1
    while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
        rows = _parse_block(block, first)
        if rows is None:
            numbers, rows, first = _read_lines(block, start, first)
        else:
            numbers = np.arange(start, start + len(block), dtype=np.int64)
            first = first or (start, rows.shape[1])
        number_chunks.append(numbers)
        row_chunks.append(rows)
        start += len(block)
    row_chunks = [rows for rows in row_chunks if len(rows)]
    if not row_chunks:
        return np.empty(0, dtype=np.int64), np.empty((0, 0))
    numbers = np.concatenate(number_chunks)
    del number_chunks  # so that only the values are held twice
    return numbers, np.concatenate(row_chunks)


def _cmd_transform(args, stream_in, out) -> int:
    linenos, values = _read_csv(stream_in)
    if not len(linenos):
        return EXIT_OK
    transform, prefix = _TRANSFORMS[args.kind, args.direction]
    try:
        try:
            coords, log_det = transform(values)
        except RowError as exc:
            # The rows before the one named passed the checks on the
            # inputs; one that fails a later check is the first bad row.
            transform(values[: exc.row])
            raise
    except RowError as exc:
        raise ValueError(f"row {linenos[exc.row]}: {exc}") from exc
    header = [f"{prefix}{j + 1}" for j in range(coords.shape[1])]
    if args.jacobian:
        header.append("log_det_jacobian_inverse")
    _write_csv(out, header, coords, *([log_det] if args.jacobian else []))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args, out) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    from . import checks  # only verify pays for importing the suite

    reports = checks.run_all(args.seed, args.level)
    for report in reports:
        out.write(json.dumps(report.to_json_dict()) + "\n")
    return EXIT_OK if checks.all_passed(reports) else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countcomp",
        description="Distributions on counts and compositions, with a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a log density / log PMF at a point")
    p_eval.add_argument("--dist", required=True)
    p_eval.add_argument("--params", help="JSON object of parameters")
    p_eval.add_argument("--params-file", help="path to a JSON parameter file")
    p_eval.add_argument("--point", required=True, help="comma-separated point")
    p_eval.add_argument("--log", action="store_true", help="emit only the log value")

    p_sample = sub.add_parser("sample", help="draw samples as CSV rows")
    p_sample.add_argument("--dist", required=True)
    p_sample.add_argument("--params", help="JSON object of parameters")
    p_sample.add_argument("--params-file", help="path to a JSON parameter file")
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)

    p_transform = sub.add_parser(
        "transform", help="map CSV rows between the simplex and ratio/log-ratio coordinates"
    )
    p_transform.add_argument("kind", choices=["ratio", "alr"])
    p_transform.add_argument("direction", choices=["forward", "inverse"])
    p_transform.add_argument(
        "--jacobian", action="store_true",
        help="append the closed-form log |det J| of the inverse map at the ratio point",
    )

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--level", choices=["quick", "full"], default="full")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "eval":
            return _cmd_eval(args, sys.stdout)
        if args.command == "sample":
            return _cmd_sample(args, sys.stdout)
        if args.command == "transform":
            return _cmd_transform(args, sys.stdin, sys.stdout)
        return _cmd_verify(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:  # numpy's failed allocations are MemoryErrors too
        print(f"error: out of memory: this {args.command} job needs more memory than the "
              "process may use", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
