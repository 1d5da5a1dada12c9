"""Import hygiene: scipy is the oracle of the tests and the benchmark,
not a runtime dependency.  No file under ``src/`` or ``demos/`` imports
it, and the core library, the CLI, the verification suite (which
computes its own chi-square, Gamma and KS tails) and every demo run in a
child where any import of scipy fails.  Further: the CLI does not load
``fractions``, nor a quick ``verify`` ``numpy.ma``, nor the package or a
one-point ``eval`` ``dataclasses``; the suite's names still resolve from
the package; the suite's helpers are not public; the demos import only
names in the ``__all__`` of the module they import from; no module keeps
an import from the package that it never uses; and every source file
parses as Python 3.10."""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import countcomp
from countcomp import checks

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(Path(countcomp.__file__).parent.glob("*.py"))

# The package's public names: the two chains, their samplers and value
# objects, the log-domain special functions, and the suite's entry.
PUBLIC_NAMES = [
    "AggregatedValueMass", "BetaBinomialParams", "CheckReport", "Composition", "CountVector",
    "DirichletParams", "GammaMixtureParams", "LogRatioVector", "RatioVector",
    "all_passed", "alr_dirichlet_log_pdf", "beta_binomial_log_pmf", "dirichlet_log_pdf",
    "dirichlet_multinomial_log_pmf", "dirichlet_sample", "gamma_sample",
    "inverted_dirichlet_log_pdf", "log_beta", "log_det_jacobian_log_ratio_inverse",
    "log_det_jacobian_ratio_inverse", "log_gamma", "log_multivariate_beta",
    "log_ratio_forward", "log_ratio_inverse", "log_sum_exp", "multinomial_log_pmf",
    "multinomial_sample", "nb_truncation_bound", "negative_binomial_log_pmf",
    "negative_binomial_sample_via_mixture", "normalized_nb_log_pmf", "normalized_nb_value_pmf",
    "poisson_sample", "ratio_forward", "ratio_inverse", "run_all",
]
CHECKS_NAMES = ["CheckReport", "all_passed", "run_all"]
# The suite's helpers, public until they were made private to it.
SUITE_HELPERS = [
    "adaptive_simpson", "check_beta_binomial_merge", "check_conditional_multinomial",
    "check_dm_integral", "check_pi_independent_of_s", "check_transform_density",
    "enumerate_compositions", "finite_difference_jacobian",
    "finite_difference_log_det_log_ratio_inverse", "finite_difference_log_det_ratio_inverse",
    "rank_one_update_det",
]

SCIPY_FREE = {
    "import countcomp": "import countcomp",
    "import countcomp.distributions": "import countcomp.distributions",
    "cli eval": """
        from countcomp import cli
        assert cli.main(["eval", "--dist", "dirichlet", "--params", '{"alpha": [1, 2]}',
                         "--point", "0.3,0.7"]) == 0
    """,
    "cli sample": """
        from countcomp import cli
        for dist, params in (("dirichlet", '{"alpha": [1, 2]}'),
                             ("multinomial", '{"probs": [0.4, 0.6], "m": 5}'),
                             ("negative-binomial", '{"R": 2, "theta": 1}')):
            assert cli.main(["sample", "--dist", dist, "--params", params,
                             "--count", "3", "--seed", "1"]) == 0
    """,
    "cli transform": """
        import io
        from countcomp import cli
        for kind in ("ratio", "alr"):
            sys.stdin = io.StringIO("0.2,0.3,0.5\\n")
            assert cli.main(["transform", kind, "forward", "--jacobian"]) == 0
    """,
    "import countcomp.checks": "import countcomp.checks",
    "verify quick seed 0": """
        import contextlib, io
        from countcomp import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--level", "quick", "--seed", "0"]) == 0
    """,
    "verify quick seed 11": """
        import contextlib, io
        from countcomp import checks, cli
        smirnov, sizes = checks._smirnov, []
        checks._smirnov = lambda n, d: sizes.append(n) or smirnov(n, d)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--level", "quick", "--seed", "11"]) == 0
        assert sizes, "seed 11 no longer reaches the one-sided KS tail"
    """,
    # Where scipy's kstwo.sf takes its exact branches: n D in (0.5, 1] and
    # the Durbin-matrix band n D^1.5 <= 1.4, with the point where scipy's
    # matrix overflows at n = 10^5.
    "ks tail over scipy's exact branches": """
        import numpy as np
        from countcomp import checks
        for n in (10_000, 100_000):
            d = np.append(np.linspace(0.5, 1.0, 51)[1:] / n,
                          np.linspace(1.0 / n, (1.4 / n) ** (2 / 3), 200))
            p = [checks._ks_sf(n, t) for t in d.tolist() + [1.883492068123413e-05]]
            assert 0.999999 < min(p) and max(p) <= 1.0, (n, min(p), max(p))
    """,
    "demos": f"""
        import contextlib, io, pathlib, runpy
        for demo in sorted(pathlib.Path({str(ROOT / "demos")!r}).glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    """,
}


@pytest.mark.parametrize("body", SCIPY_FREE.values(), ids=SCIPY_FREE.keys())
def test_scipy_not_imported(body):
    # With sys.modules["scipy"] set to None, any import of scipy raises
    # ImportError in the child.
    script = "import sys\nsys.modules['scipy'] = None\n" + textwrap.dedent(body)
    res = subprocess.run([sys.executable, "-W", "error", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_runtime_and_demos_do_not_import_scipy():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(p for d in ("src", "demos") for p in (ROOT / d).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "scipy"
    ]
    assert not found


def test_cli_import_does_not_load_fractions():
    # Only a Fraction value of normalized_nb_value_pmf needs the module,
    # which imports decimal; every CLI process would pay for both.
    script = "import countcomp.cli, sys; assert 'fractions' not in sys.modules"
    res = subprocess.run([sys.executable, "-W", "error", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_verify_does_not_load_numpy_ma():
    # numpy imports numpy.ma on the first np.quantile, or np.unique
    # without return flags, at about 20 ms; the suite uses neither, so
    # no verify process pays for it.
    script = ("import sys\nfrom countcomp import cli\n"
              "assert cli.main(['verify', '--level', 'quick']) == 0\n"
              "assert 'numpy.ma' not in sys.modules")
    res = subprocess.run([sys.executable, "-W", "error", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_library_and_cli_eval_do_not_load_dataclasses():
    # The value objects are frozen by their own base class, so neither the
    # package import nor a one-point eval pays for dataclasses.
    script = ("import sys\nimport countcomp\n"
              "assert 'dataclasses' not in sys.modules, 'import countcomp'\n"
              "from countcomp import cli\n"
              "argv = ['eval', '--dist', 'dirichlet-multinomial', '--params',\n"
              "        '{\"shapes\": [1.5, 2.0]}', '--point', '3,4']\n"
              "assert cli.main(argv) == 0\n"
              "assert 'dataclasses' not in sys.modules, 'cli eval'")
    res = subprocess.run([sys.executable, "-W", "error", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_public_names_unchanged_and_resolve():
    assert sorted(countcomp.__all__) == sorted(PUBLIC_NAMES)
    for name in countcomp.__all__:
        assert getattr(countcomp, name) is not None
    for name in CHECKS_NAMES:
        assert getattr(countcomp, name) is getattr(checks, name)
    from countcomp import CheckReport, run_all

    assert CheckReport is checks.CheckReport
    assert run_all is checks.run_all


@pytest.mark.parametrize("module", ["countcomp", "countcomp.checks", "countcomp.simplex",
                                    "countcomp.special"])
def test_suite_helpers_are_not_public(module):
    mod = sys.modules[module]
    assert not [name for name in SUITE_HELPERS if hasattr(mod, name)]
    assert not set(SUITE_HELPERS) & set(getattr(mod, "__all__", []))


def test_readme_lists_the_public_names():
    # The bullet list that opens README's "Public API" section.
    section = (ROOT / "README.md").read_text().split("### Public API\n", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(countcomp.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        countcomp.no_such_name
    with pytest.raises(ImportError):
        from countcomp import no_such_name  # noqa: F401


def _package_imports(tree: ast.Module) -> list[str]:
    """The local names bound by imports from the package itself."""
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "countcomp")
        for alias in node.names
    ]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_imports_are_used_or_exported(path):
    # A name imported from the package and never read is a dead import;
    # the package's __init__ re-exports through __all__ instead.
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    dead = [name for name in _package_imports(tree) if name not in read | _exported(tree)]
    assert not dead, f"{path.name} imports names it never uses: {dead}"


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demos_import_only_public_names(path):
    # Public means listed in the __all__ of the module imported from:
    # the package's names, or a module's batch forms and row rules.
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "countcomp"
        for alias in node.names
    ]
    assert imports
    private = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(module).__all__]
    assert not private


SOURCES = sorted(p for d in ("src", "tests", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # Only one interpreter may be at hand; the grammar of the oldest
    # supported one (requires-python >= 3.10) is checked here instead.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
