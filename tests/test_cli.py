"""End-to-end tests of the command-line interface, via subprocesses and
in-process calls of ``cli.main``."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from countcomp import (
    Composition,
    DirichletParams,
    LogRatioVector,
    RatioVector,
    cli,
    dirichlet_sample,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_forward,
    log_ratio_inverse,
    multinomial_sample,
    ratio_forward,
    ratio_inverse,
)
from countcomp.simplex import RowError

CLI = [sys.executable, "-m", "countcomp.cli"]


def run_cli(*args, stdin=""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=600
    )


class TestEval:
    def test_dirichlet_uniform(self):
        res = run_cli(
            "eval", "--dist", "dirichlet", "--params", '{"alpha": [1, 1, 1]}',
            "--point", "0.2,0.3,0.5",
        )
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["logValue"] == pytest.approx(math.log(2.0), rel=1e-12)
        assert record["value"] == pytest.approx(2.0, rel=1e-12)

    def test_dirichlet_multinomial_value(self):
        res = run_cli(
            "eval", "--dist", "dirichlet-multinomial", "--params", '{"shapes": [1, 1]}',
            "--point", "1,3",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(0.2, rel=1e-12)

    def test_beta_binomial_value(self):
        res = run_cli(
            "eval", "--dist", "beta-binomial", "--params", '{"a": 1, "b": 1, "m": 5}',
            "--point", "3",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(1.0 / 6.0, rel=1e-6)

    def test_log_flag_omits_value(self):
        res = run_cli(
            "eval", "--dist", "negative-binomial", "--params", '{"R": 1, "p": 0.5}',
            "--point", "3", "--log",
        )
        record = json.loads(res.stdout)
        assert "value" not in record
        assert record["logValue"] == pytest.approx(4.0 * math.log(0.5), rel=1e-12)

    def test_underflowing_value_omitted(self):
        res = run_cli(
            "eval", "--dist", "negative-binomial", "--params", '{"R": 1, "p": 0.5}',
            "--point", "5000",
        )
        record = json.loads(res.stdout)
        assert record["logValue"] < -3000
        assert "value" not in record

    def test_params_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"alpha": [1, 1]}')
        res = run_cli(
            "eval", "--dist", "dirichlet", "--params-file", str(path), "--point", "0.3,0.7"
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["logValue"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_json_exits_2(self):
        res = run_cli("eval", "--dist", "dirichlet", "--params", "{alpha: oops", "--point", "0.5,0.5")
        assert res.returncode == 2
        assert res.stderr.strip().count("\n") == 0  # single-line diagnostic

    def test_unknown_dist_exits_2(self):
        res = run_cli("eval", "--dist", "nope", "--params", "{}", "--point", "1")
        assert res.returncode == 2

    def test_unknown_key_exits_2(self):
        res = run_cli(
            "eval", "--dist", "dirichlet", "--params", '{"alpha": [1, 1], "extra": 1}',
            "--point", "0.5,0.5",
        )
        assert res.returncode == 2

    def test_domain_error_exits_1(self):
        res = run_cli(
            "eval", "--dist", "dirichlet", "--params", '{"alpha": [1, -1]}', "--point", "0.5,0.5"
        )
        assert res.returncode == 1
        res = run_cli(
            "eval", "--dist", "beta-binomial", "--params", '{"a": 1, "b": 1, "m": 5}',
            "--point", "7",
        )
        assert res.returncode == 1

    def test_overflowing_shapes_exit_1_with_an_error_line(self):
        res = run_cli(
            "eval", "--dist", "dirichlet", "--params", '{"alpha": [1e308, 1e308]}',
            "--point", "0.5,0.5",
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_missing_params_exits_2(self):
        res = run_cli("eval", "--dist", "dirichlet", "--point", "0.5,0.5")
        assert res.returncode == 2


class TestSample:
    def test_dirichlet_rows_sum_to_one(self):
        res = run_cli(
            "sample", "--dist", "dirichlet", "--params", '{"alpha": [2, 3, 5]}',
            "--count", "3", "--seed", "7",
        )
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 4
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert sum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_seed_reproducibility_bytes(self):
        args = (
            "sample", "--dist", "negative-binomial", "--params", '{"R": 2, "theta": 1}',
            "--count", "50", "--seed", "11",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_nb_mean_mc(self):
        res = run_cli(
            "sample", "--dist", "negative-binomial", "--params", '{"R": 2, "theta": 1}',
            "--count", "100000", "--seed", "1",
        )
        draws = np.array([int(line) for line in res.stdout.strip().splitlines()[1:]])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) < 3.0 * se

    def test_multinomial_and_gamma_and_poisson(self):
        res = run_cli(
            "sample", "--dist", "multinomial", "--params", '{"probs": [0.2, 0.8], "m": 6}',
            "--count", "4", "--seed", "3",
        )
        assert res.returncode == 0
        for line in res.stdout.strip().splitlines()[1:]:
            assert sum(int(v) for v in line.split(",")) == 6
        for dist, params in (("gamma", '{"shape": 2, "scale": 1}'), ("poisson", '{"rate": 4}')):
            res = run_cli("sample", "--dist", dist, "--params", params, "--count", "2", "--seed", "5")
            assert res.returncode == 0
            assert len(res.stdout.strip().splitlines()) == 3

    def test_unsupported_sampler_exits_1(self):
        res = run_cli(
            "sample", "--dist", "beta-binomial", "--params", '{"a": 1, "b": 1, "m": 5}',
            "--count", "1", "--seed", "0",
        )
        assert res.returncode == 1

    def test_unknown_dist_exits_2(self):
        res = run_cli("sample", "--dist", "wat", "--params", "{}", "--count", "1", "--seed", "0")
        assert res.returncode == 2

    def test_domain_error_writes_nothing_and_names_row(self):
        # Gamma(0.01) draws underflow; the library batch of this seed names
        # the first row that Composition rejects, a later one than the
        # first.  No row may be written before it.
        with pytest.raises(RowError) as info:
            dirichlet_sample(DirichletParams([0.01] * 3), np.random.default_rng(3), size=5000)
        assert info.value.row > 0
        res = run_cli(
            "sample", "--dist", "dirichlet", "--params", '{"alpha": [0.01, 0.01, 0.01]}',
            "--count", "5000", "--seed", "3",
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(
            f"error: row {info.value.row + 1}: Composition entries must be")


class TestTransform:
    def test_alr_forward_equal_parts(self):
        res = run_cli("transform", "alr", "forward", stdin="0.5,0.5\n")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "y1"
        assert float(lines[1]) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_inverse_with_jacobian(self):
        res = run_cli("transform", "ratio", "inverse", "--jacobian", stdin="0.4,0.6\n")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "x1,x2,x3,log_det_jacobian_inverse"
        vals = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(vals[:3], [0.2, 0.3, 0.5], rtol=1e-12)
        assert vals[3] == pytest.approx(-3.0 * math.log(2.0), rel=1e-12)

    def test_pipeline_round_trip(self):
        original = "0.2,0.3,0.5\n0.1,0.4,0.5\n0.25,0.25,0.5\n"
        forward = run_cli("transform", "alr", "forward", stdin=original)
        back = run_cli("transform", "alr", "inverse", stdin=forward.stdout)
        got = [
            [float(v) for v in line.split(",")]
            for line in back.stdout.strip().splitlines()[1:]
        ]
        want = [[float(v) for v in line.split(",")] for line in original.strip().splitlines()]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_header_rows_accepted(self):
        res = run_cli("transform", "ratio", "forward", stdin="x1,x2\n0.5,0.5\n")
        assert res.returncode == 0
        assert res.stdout.strip().splitlines()[1] == "1.0"

    def test_header_after_blank_lines_accepted(self):
        res = run_cli("transform", "alr", "forward", stdin="\n  \nx1,x2\n0.5,0.5\n")
        assert res.returncode == 0
        assert res.stdout == "y1\n0.0\n"

    def test_only_first_nonblank_line_may_be_header(self):
        res = run_cli("transform", "alr", "forward", stdin="\nx1,x2\ny1,y2\n0.5,0.5\n")
        assert res.returncode == 2
        assert res.stderr.startswith("error: row 3: not numeric CSV")

    def test_simplex_violation_reports_row(self):
        res = run_cli("transform", "ratio", "forward", stdin="0.5,0.5\n0.9,0.9\n")
        assert res.returncode == 1
        assert "row 2" in res.stderr

    def test_non_numeric_row_exits_2(self):
        res = run_cli("transform", "ratio", "forward", stdin="0.5,0.5\n0.2,zebra\n")
        assert res.returncode == 2

    def test_ragged_rows_exit_2(self):
        res = run_cli("transform", "ratio", "forward", stdin="x1,x2\n0.5,0.5\n0.2,0.3,0.5\n")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: row 3:")

    def test_first_bad_row_reported_across_steps(self):
        # Row 2 passes the check on ratio inputs, but its image has a
        # subnormal entry; row 3 fails the input check.  Row 2 comes first.
        res = run_cli("transform", "ratio", "inverse", stdin="1,1\n1e-310,1\n-1,1\n")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: row 2: Composition entries must be strictly positive")


def _main_stdout(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _csv_line(values):
    return ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(int(v))
                    for v in values) + "\n"


class TestBatchedMatchesScalarApi:
    """The CLI works on whole arrays; its bytes must be those of a loop
    over the scalar value objects and maps, and ``sample`` must print the
    rows of the library's ``size=`` draw."""

    ROWS = 1000

    @pytest.mark.parametrize("kind", ["ratio", "alr"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_transform(self, capsys, monkeypatch, kind, direction):
        rng = np.random.default_rng(2024)
        x = rng.dirichlet(rng.uniform(0.3, 5.0, 4), size=self.ROWS)
        if direction == "forward":
            rows = x
        else:
            rows = x[:, :-1] / x[:, -1:]
            rows = rows if kind == "ratio" else np.log(rows)
        stdin = "".join(_csv_line(row) for row in rows)
        got = _main_stdout(capsys, monkeypatch, ["transform", kind, direction, "--jacobian"], stdin)
        prefix = "y" if direction == "forward" else "x"
        width = 3 if direction == "forward" else 4
        want = [",".join([f"{prefix}{j + 1}" for j in range(width)]
                         + ["log_det_jacobian_inverse"]) + "\n"]
        for row in rows:
            if direction == "forward":
                comp = Composition(row)
                y = ratio_forward(comp) if kind == "ratio" else log_ratio_forward(comp)
                coords = y.entries
            else:
                y = RatioVector(row) if kind == "ratio" else LogRatioVector(row)
                coords = (ratio_inverse(y) if kind == "ratio" else log_ratio_inverse(y)).entries
            log_det = (log_det_jacobian_ratio_inverse(y, 4) if kind == "ratio"
                       else log_det_jacobian_log_ratio_inverse(y, 4))
            want.append(_csv_line([*coords, log_det]))
        assert got == "".join(want)

    def test_sample_dirichlet(self, capsys, monkeypatch):
        alpha = [0.7, 2.5, 1.3, 4.0]
        got = _main_stdout(capsys, monkeypatch, [
            "sample", "--dist", "dirichlet", "--params", json.dumps({"alpha": alpha}),
            "--count", str(self.ROWS), "--seed", "17"])
        rows = dirichlet_sample(DirichletParams(alpha), np.random.default_rng(17), size=self.ROWS)
        want = "x1,x2,x3,x4\n" + "".join(_csv_line(row) for row in rows)
        assert got == want

    def test_sample_multinomial(self, capsys, monkeypatch):
        probs = [0.1, 0.2, 0.3, 0.4]
        got = _main_stdout(capsys, monkeypatch, [
            "sample", "--dist", "multinomial", "--params", json.dumps({"probs": probs, "m": 40}),
            "--count", str(self.ROWS), "--seed", "19"])
        rows = multinomial_sample(40, Composition(probs), np.random.default_rng(19), size=self.ROWS)
        want = "x1,x2,x3,x4\n" + "".join(_csv_line(row) for row in rows)
        assert got == want


class TestVerify:
    def test_quick_suite_green_json_lines(self):
        res = run_cli("verify", "--seed", "5", "--level", "quick")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) >= 30
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "name", "statistic", "threshold", "passed", "inconclusive",
                "size", "seed", "detail",
            }
            assert record["passed"] or record["inconclusive"]
