"""Spans around calls into countcomp, installed from outside the package.

``install`` replaces the public functions of each module (its
``__all__``; ``main`` for the CLI) with timing wrappers, everywhere the
package binds them, and wraps ``__init__`` of the value objects so that
``isinstance`` keeps working.  Nothing under ``src/`` is edited.

Every call becomes a span: name, start, end, parent span and op id.
The first ``SPAN_CAP`` spans of each name are kept in memory and
written out when the run ends; past that, a name is only aggregated per
(name, parent name), which is all the layer metrics need.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time

SPAN_CAP = 2_000
MODULES = ("special", "simplex", "distributions", "checks", "cli")
VALUE_OBJECTS = {
    "simplex": ("Composition", "RatioVector", "LogRatioVector"),
    "distributions": ("CountVector",),
}
ORACLE = "checks.oracle"


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.root = [0.0, -1, "<root>"]  # [child time, span id, name]
        self.stack = [self.root]
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.kept: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.op = 0
        self._ids = itertools.count()

    def _record(self, name, parent, frame, start, end):
        dur = end - start
        parent[0] += dur
        key = (name, parent[2])
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, dur, dur - frame[0]]
        else:
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[0]
        kept = self.kept.get(name, 0)
        if kept < SPAN_CAP:
            self.kept[name] = kept + 1
            self.spans.append((name, start, end, frame[1], parent[1], self.op))

    def wrap(self, name, fn):
        stack, clock, ids, record = self.stack, self.clock, self._ids, self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids), name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(name, parent, frame, start, end)

        return wrapper

    def wrap_generator(self, name, fn):
        """Each ``next`` is a span; ``<name>.items`` counts the items."""
        stack, clock, ids, record = self.stack, self.clock, self._ids, self._record
        counters = self.counters
        counters.setdefault(name + ".items", 0)

        def drive(gen):
            while True:
                parent = stack[-1]
                frame = [0.0, next(ids), name]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    record(name, parent, frame, start, end)
                counters[name + ".items"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return wrapper

    def wrap_integrator(self, name, fn):
        """Like ``wrap``, and counts evaluations of the integrand (the
        first argument) in ``<name>.f_evals``."""
        inner = self.wrap(name, fn)
        counters = self.counters
        key = name + ".f_evals"
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(t):
                counters[key] += 1
                return f(t)

            return inner(counted, *args, **kwargs)

        return wrapper

    def dump(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "span": span, "parent": parent, "op": op}) + "\n")

    def summary(self) -> dict:
        return {"stats": [[n, p, *v] for (n, p), v in self.stats.items()],
                "counters": dict(self.counters)}


class _OracleProxy:
    """Stands in for ``scipy.stats`` inside ``countcomp.checks``: every
    callable reached through it (``stats.chi2.sf``, ``stats.kstest``,
    freezing ``stats.gamma(...)``) runs as a span."""

    def __init__(self, tracer, target, name):
        self._tracer, self._target, self._name = tracer, target, name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        name = f"{self._name}.{attr}"
        if inspect.isroutine(value):
            return self._tracer.wrap(name, value)
        if callable(value) or hasattr(value, "__dict__"):
            return _OracleProxy(self._tracer, value, name)
        return value

    def __call__(self, *args, **kwargs):
        return self._tracer.wrap(self._name, self._target)(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap countcomp's public functions and value-object constructors."""
    import importlib

    package = importlib.import_module("countcomp")
    modules = {short: importlib.import_module(f"countcomp.{short}") for short in MODULES}
    replaced = {}
    for short, module in modules.items():
        for attr in getattr(module, "__all__", ["main"]):
            obj = getattr(module, attr)
            name = f"{short}.{attr}"
            if inspect.isclass(obj):
                if attr in VALUE_OBJECTS.get(short, ()):
                    obj.__init__ = tracer.wrap(name, obj.__init__)
            elif inspect.isgeneratorfunction(obj):
                replaced[id(obj)] = (obj, tracer.wrap_generator(name, obj))
            elif attr == "adaptive_simpson":
                replaced[id(obj)] = (obj, tracer.wrap_integrator(name, obj))
            elif inspect.isfunction(obj):
                replaced[id(obj)] = (obj, tracer.wrap(name, obj))
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    checks = modules["checks"]
    if hasattr(checks, "stats"):
        checks.stats = _OracleProxy(tracer, checks.stats, ORACLE)


# ---------------------------------------------------------------------------
# From merged span statistics to layer metrics
# ---------------------------------------------------------------------------

GROUPS = {
    "special.log_multivariate_beta": ("special.log_multivariate_beta", "special.log_beta"),
    "simplex.value_objects": ("simplex.Composition", "simplex.RatioVector",
                              "simplex.LogRatioVector"),
    "simplex.maps": ("simplex.ratio_forward", "simplex.ratio_inverse",
                     "simplex.log_ratio_forward", "simplex.log_ratio_inverse",
                     "simplex.log_det_jacobian_ratio_inverse",
                     "simplex.log_det_jacobian_log_ratio_inverse"),
    "simplex.finite_difference": ("simplex.finite_difference_jacobian",
                                  "simplex.finite_difference_log_det_ratio_inverse",
                                  "simplex.finite_difference_log_det_log_ratio_inverse"),
    "distributions.densities": ("distributions.dirichlet_log_pdf",
                                "distributions.inverted_dirichlet_log_pdf",
                                "distributions.alr_dirichlet_log_pdf"),
    "distributions.count_pmfs": ("distributions.negative_binomial_log_pmf",
                                 "distributions.multinomial_log_pmf",
                                 "distributions.dirichlet_multinomial_log_pmf",
                                 "distributions.beta_binomial_log_pmf",
                                 "distributions.normalized_nb_log_pmf"),
}
SAMPLERS = ("gamma_sample", "poisson_sample", "dirichlet_sample", "multinomial_sample",
            "negative_binomial_sample_via_mixture")
CHECK_FUNCTIONS = ("check_transform_density", "check_dm_integral",
                   "check_conditional_multinomial", "check_pi_independent_of_s",
                   "check_beta_binomial_merge")


class SpanStats:
    """Span statistics merged over one or more traced processes."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = {}

    def merge(self, summary: dict) -> None:
        for name, parent, calls, total, self_s in summary["stats"]:
            entry = self.edges.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for key, value in summary["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _sum(self, names, column, outside=None):
        names = set(names)
        return sum(v[column] for (n, p), v in self.edges.items()
                   if n in names and (outside is None or p not in outside))

    def calls(self, *names):
        """Calls into the group from outside it (nested calls count once)."""
        return self._sum(names, 0, outside=set(names))

    def total_s(self, *names):
        return self._sum(names, 1, outside=set(names))

    def self_s(self, *names):
        return self._sum(names, 2)

    def self_s_prefix(self, prefix, exclude=None):
        return sum(v[2] for (n, _), v in self.edges.items()
                   if n.startswith(prefix) and not (exclude and n.startswith(exclude)))

    def us_per_call(self, name):
        calls = self.calls(name)
        return 1e6 * self.total_s(name) / calls if calls else 0.0


def layer_metrics(stats: SpanStats) -> dict:
    """Per-layer metrics for the special, simplex, distributions and
    checks layers, plus ``cli.main.s`` and ``cli.self_s``."""
    out = {}
    for name in ("special.log_gamma", "special.log_sum_exp"):
        out[f"{name}.calls"] = stats.calls(name)
        out[f"{name}.self_s"] = stats.self_s(name)
    out["special.log_gamma.us_per_call"] = stats.us_per_call("special.log_gamma")
    for group, members in GROUPS.items():
        out[f"{group}.calls"] = stats.calls(*members)
        out[f"{group}.self_s"] = stats.self_s(*members)
    out["simplex.Composition.us_per_call"] = stats.us_per_call("simplex.Composition")
    out["distributions.dirichlet_log_pdf.us_per_call"] = stats.us_per_call(
        "distributions.dirichlet_log_pdf")
    for short in ("CountVector", "normalized_nb_value_pmf", "nb_truncation_bound") + SAMPLERS:
        name = f"distributions.{short}"
        out[f"{name}.calls"] = stats.calls(name)
        out[f"{name}.self_s"] = stats.self_s(name)
        if short in SAMPLERS:
            out[f"{name}.us_per_call"] = stats.us_per_call(name)
    out["checks.run_all.s"] = stats.total_s("checks.run_all")
    for short in CHECK_FUNCTIONS:
        out[f"checks.{short}.s"] = stats.total_s(f"checks.{short}")
    out["checks.adaptive_simpson.calls"] = stats.calls("checks.adaptive_simpson")
    out["checks.adaptive_simpson.f_evals"] = stats.counters.get(
        "checks.adaptive_simpson.f_evals", 0)
    out["checks.adaptive_simpson.self_s"] = stats.self_s("checks.adaptive_simpson")
    out["checks.enumerate_compositions.items"] = stats.counters.get(
        "checks.enumerate_compositions.items", 0)
    out["checks.enumerate_compositions.self_s"] = stats.self_s("checks.enumerate_compositions")
    oracle = [n for n, _ in stats.edges if n.startswith(ORACLE)]
    out["checks.oracle.calls"] = stats.calls(*oracle)
    out["checks.oracle.self_s"] = stats.self_s(*oracle)
    out["checks.self_s"] = stats.self_s_prefix("checks.", exclude=ORACLE)
    out["cli.main.s"] = stats.total_s("cli.main")
    out["cli.self_s"] = stats.self_s("cli.main")
    return out
