"""Import hygiene: the core library and the eval/sample/transform CLI do
not load scipy, which only the verification suite (``countcomp.checks``)
uses as its oracle; the suite's names still resolve from the package;
and no module keeps an import from the package that it never uses."""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import countcomp
from countcomp import checks

MODULES = sorted(Path(countcomp.__file__).parent.glob("*.py"))

# The package's public names, as listed before the suite was made lazy.
PUBLIC_NAMES = [
    "AggregatedValueMass", "BetaBinomialParams", "CheckReport", "Composition", "CountVector",
    "DirichletParams", "GammaMixtureParams", "LogRatioVector", "RatioVector",
    "adaptive_simpson", "all_passed", "alr_dirichlet_log_pdf", "beta_binomial_log_pmf",
    "check_beta_binomial_merge", "check_conditional_multinomial", "check_dm_integral",
    "check_pi_independent_of_s", "check_transform_density", "dirichlet_log_pdf",
    "dirichlet_multinomial_log_pmf", "dirichlet_sample", "enumerate_compositions",
    "finite_difference_jacobian", "finite_difference_log_det_log_ratio_inverse",
    "finite_difference_log_det_ratio_inverse", "gamma_sample", "inverted_dirichlet_log_pdf",
    "log_beta", "log_det_jacobian_log_ratio_inverse", "log_det_jacobian_ratio_inverse",
    "log_gamma", "log_multivariate_beta", "log_ratio_forward", "log_ratio_inverse",
    "log_sum_exp", "multinomial_log_pmf", "multinomial_sample", "nb_truncation_bound",
    "negative_binomial_log_pmf", "negative_binomial_sample_via_mixture",
    "normalized_nb_log_pmf", "normalized_nb_value_pmf", "poisson_sample",
    "rank_one_update_det", "ratio_forward", "ratio_inverse", "run_all",
]
CHECKS_NAMES = [
    "CheckReport", "adaptive_simpson", "all_passed", "check_beta_binomial_merge",
    "check_conditional_multinomial", "check_dm_integral", "check_pi_independent_of_s",
    "check_transform_density", "enumerate_compositions", "run_all",
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
}


@pytest.mark.parametrize("body", SCIPY_FREE.values(), ids=SCIPY_FREE.keys())
def test_scipy_not_imported(body):
    script = "import sys\n" + textwrap.dedent(body) + (
        "\nassert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)[:3]\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
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
