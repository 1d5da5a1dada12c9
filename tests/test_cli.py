"""End-to-end tests of the command-line interface, via subprocesses and
in-process calls of ``cli.main``."""

import io
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countcomp import (
    BetaBinomialParams,
    Composition,
    CountVector,
    DirichletParams,
    GammaMixtureParams,
    LogRatioVector,
    RatioVector,
    alr_dirichlet_log_pdf,
    beta_binomial_log_pmf,
    cli,
    dirichlet_log_pdf,
    dirichlet_multinomial_log_pmf,
    dirichlet_sample,
    inverted_dirichlet_log_pdf,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_forward,
    log_ratio_inverse,
    multinomial_log_pmf,
    multinomial_sample,
    negative_binomial_log_pmf,
    normalized_nb_log_pmf,
    ratio_forward,
    ratio_inverse,
)
from countcomp.simplex import RowError

CLI = [sys.executable, "-W", "error", "-m", "countcomp.cli"]


def run_cli(*args, stdin=""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=600
    )


ALPHA = [1.5, 2.0, 0.7]
SHAPES = [0.5, 1.5, 2.0]
# One case per eval distribution: (params, point, the library's value).
EVAL_CASES = {
    "dirichlet": ({"alpha": ALPHA}, "0.2,0.3,0.5", lambda: dirichlet_log_pdf(
        DirichletParams(ALPHA), Composition([0.2, 0.3, 0.5]))),
    "inverted-dirichlet": ({"alpha": ALPHA}, "0.4,2.5", lambda: inverted_dirichlet_log_pdf(
        DirichletParams(ALPHA), RatioVector([0.4, 2.5]))),
    "alr-dirichlet": ({"alpha": ALPHA}, "-0.3,1.2", lambda: alr_dirichlet_log_pdf(
        DirichletParams(ALPHA), LogRatioVector([-0.3, 1.2]))),
    "negative-binomial": ({"R": 2.5, "p": 0.3}, "4",
                          lambda: negative_binomial_log_pmf(2.5, 0.3, 4)),
    "multinomial": ({"probs": [0.2, 0.3, 0.5]}, "1,2,3", lambda: multinomial_log_pmf(
        6, Composition([0.2, 0.3, 0.5]), CountVector([1, 2, 3]))),
    "dirichlet-multinomial": ({"shapes": SHAPES}, "1,2,3", lambda: dirichlet_multinomial_log_pmf(
        SHAPES, 6, CountVector([1, 2, 3]))),
    "beta-binomial": ({"a": 1.5, "b": 2.5, "m": 7}, "3",
                      lambda: beta_binomial_log_pmf(BetaBinomialParams(1.5, 2.5, 7), 3)),
    "normalized-nb": ({"shapes": SHAPES, "scale": 0.8, "component": 1}, "2,5",
                      lambda: normalized_nb_log_pmf(GammaMixtureParams(SHAPES, 0.8), 1, 2, 5)),
}


class TestEval:
    def test_every_distribution_has_a_case(self):
        assert list(EVAL_CASES) == list(cli._EVAL)

    @pytest.mark.parametrize("dist", EVAL_CASES)
    def test_log_value_is_the_library_value(self, capsys, dist):
        params, point, library = EVAL_CASES[dist]
        # "--point=..." keeps a leading minus sign from reading as an option.
        argv = ["eval", "--dist", dist, "--params", json.dumps(params), f"--point={point}"]
        assert cli.main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["logValue"] == library()
        assert (record["dist"], record["params"]) == (dist, params)
        assert record["value"] == math.exp(record["logValue"])

    @pytest.mark.parametrize("dist, params, point, message", [
        ("negative-binomial", '{"R": 1, "p": 0.5}', "1,2", "a single integer point m"),
        ("beta-binomial", '{"a": 1, "b": 1, "m": 3}', "1,2", "a single integer point k"),
        ("normalized-nb", '{"shapes": [1, 2], "scale": 1, "component": 0}', "1",
         "an integer pair point k,m"),
    ])
    def test_point_length_is_a_usage_error(self, capsys, dist, params, point, message):
        assert cli.main(["eval", "--dist", dist, "--params", params, "--point", point]) == 2
        assert capsys.readouterr().err == f"error: {dist} expects {message}\n"

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

    def test_negative_binomial_past_the_log_gamma_overflow(self):
        # NB(1e306, 1e-306) is Poisson(1) to within 1e-306; log G(1e306)
        # overflows float64, and the library once refused the point with it.
        res = run_cli(
            "eval", "--dist", "negative-binomial", "--params", '{"R": 1e306, "p": 1e-306}',
            "--point", "1",
        )
        assert res.returncode == 0, res.stderr
        with mpmath.workdps(40):
            big_r, p = mpmath.mpf(1e306), mpmath.mpf(1e-306)
            want = mpmath.log(big_r) + big_r * mpmath.log1p(-p) + mpmath.log(p)
        assert abs(json.loads(res.stdout)["logValue"] - want) <= 1e-12

    def test_normalized_nb_in_the_poisson_limit(self):
        # Two independent counts, each NB(1e15, 1e-15), Poisson(1) to within
        # 1e-15: the pair (1, 2) has mass e^-2.  A difference of log-gammas
        # near R log R once printed -7.08 here.
        params = '{"shapes": [1e15, 1e15], "scale": 1e-15, "component": 0}'
        res = run_cli("eval", "--dist", "normalized-nb", "--params", params, "--point", "1,2")
        assert res.returncode == 0, res.stderr
        assert abs(json.loads(res.stdout)["logValue"] + 2.0) <= 1e-12

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

    @pytest.mark.parametrize("dist, params, point, message", [
        ("beta-binomial", '{"a": 1, "b": 1, "m": true}', "1", "param 'm' must be an integer"),
        ("negative-binomial", '{"R": true, "p": 0.5}', "1", "param 'R' must be a number"),
        ("dirichlet", '{"alpha": [true, 2]}', "0.5,0.5",
         "param 'alpha' must be a JSON array of numbers"),
    ])
    def test_json_booleans_are_not_numbers(self, capsys, dist, params, point, message):
        argv = ["eval", "--dist", dist, "--params", params, "--point", point]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# One case per sampler: (params, the header of its CSV).
SAMPLE_CASES = {
    "dirichlet": ('{"alpha": [1, 2, 3]}', "x1,x2,x3"),
    "gamma": ('{"shape": 2, "scale": 1}', "value"),
    "poisson": ('{"rate": 4}', "value"),
    "negative-binomial": ('{"shapes": [1, 2], "scale": 1}', "value"),
    "multinomial": ('{"probs": [0.5, 0.5], "m": 4}', "x1,x2"),
}


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

    @pytest.mark.parametrize("params", [
        '{"R": 2, "scale": 1}', "{}", '{"shapes": [1, 2], "scale": 1, "R": 3}',
    ])
    def test_nb_key_error_names_both_forms(self, capsys, params):
        argv = ["sample", "--dist", "negative-binomial", "--params", params,
                "--count", "2", "--seed", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: negative-binomial params need keys ['R', 'theta'] or ['scale', 'shapes'], "
            f"got {sorted(json.loads(params))}\n"
        )

    def test_unsupported_sampler_exits_1(self):
        res = run_cli(
            "sample", "--dist", "beta-binomial", "--params", '{"a": 1, "b": 1, "m": 5}',
            "--count", "1", "--seed", "0",
        )
        assert res.returncode == 1

    def test_unknown_dist_exits_2(self):
        res = run_cli("sample", "--dist", "wat", "--params", "{}", "--count", "1", "--seed", "0")
        assert res.returncode == 2

    def test_every_sampler_has_a_case(self):
        assert list(SAMPLE_CASES) == list(cli._SAMPLE)

    @pytest.mark.parametrize("dist", SAMPLE_CASES)
    def test_zero_draws_write_the_header(self, capsys, dist):
        params, header = SAMPLE_CASES[dist]
        argv = ["sample", "--dist", dist, "--params", params, "--count", "0", "--seed", "0"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == header + "\n"

    @pytest.mark.parametrize("dist, params, message", [
        ("dirichlet", '{"alpha": [1, -1]}', "DirichletParams entries must be strictly positive"),
        # probs is read before m; a bad m alone would exit 2.
        ("multinomial", '{"probs": [0.5, 0.6], "m": true}', "Composition entries sum to 1.1"),
    ])
    def test_bad_parameter_is_not_a_row(self, capsys, dist, params, message):
        argv = ["sample", "--dist", dist, "--params", params, "--count", "2", "--seed", "0"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

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


@pytest.mark.parametrize("argv", [
    ["sample", "--dist", "poisson", "--params", '{"rate": 4}', "--count", "2", "--seed", "-1"],
    ["verify", "--level", "quick", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: --seed must be non-negative\n")


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


# Fields on which float() and numpy's C parser may disagree: float()
# takes "1_0", a fullwidth digit and NBSP padding; "" and words are no
# numbers at all.
ODD_FIELDS = ["1e400", "+1.5", " 2.5 ", "1_0", "\uff17", "\xa01.5\xa0", "", "x1", "-0.0",
              "nan", "inf", "-inf", "5e-324", "0x10"]


@st.composite
def csv_texts(draw):
    """CSV text, mostly rows of one width, with header words, blank lines,
    ragged rows, odd fields, trailing commas and three line endings."""
    width = draw(st.integers(1, 3))
    row = st.lists(st.floats().map(repr), min_size=width, max_size=width).map(",".join)
    line = st.one_of(
        row, row, row,
        st.lists(st.one_of(st.floats().map(repr), st.sampled_from(ODD_FIELDS)),
                 min_size=1, max_size=4).map(",".join),
        row.map(lambda text: text + ","),
        st.sampled_from(["", "  ", "\t", "x1,x2", "y1"]),
    )
    lines = draw(st.lists(line, max_size=12))
    # With StringIO's "\n" newline a "\r" ending joins two lines into one.
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(body + end for body, end in zip(lines, endings))
    return text[: -len(endings[-1])] if lines and draw(st.booleans()) else text


def _read_with(read, text):
    try:
        numbers, rows = read(io.StringIO(text))[:2]
    except cli.UsageError as exc:
        return str(exc)
    return numbers.tobytes(), rows.shape, rows.tobytes()


@given(csv_texts(), st.integers(1, 3))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example("x1,x2\n1,2\n\n3,4\n5,6\n", 2)  # numpy skips an empty line
@example("1,2\n\n\n3,4\n", 2)  # and warns on a block of them
@example("x1,x2\n1,2\n3,4\n5\n", 2)  # the first row comes after a header
@example("1,2\n3,4\n5,zebra\n", 2)
@example("1,2\r\n3\r4\n", 1)
@example("1,2\n\n3,4\r5,6\n", 3)  # a bare "\r" may end a row where a blank line is missing
@example("x1\n1_0\n\uff17\n\xa01.5\xa0\n1e400\n+1.5\n 2.5 \n-0.0\n5e-324\nnan\n", 3)
def test_block_reader_equals_per_line_reader(text, block_rows):
    """Whatever a block falls on, the block reader gives the line numbers
    and values of the per-line rules, bit for bit, or their error, and
    warns nothing."""
    want = _read_with(lambda stream: cli._read_lines(stream, 1, None, header_allowed=True), text)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        assert _read_with(cli._read_csv, text) == want
    assert caught == []


@pytest.mark.parametrize("block, rows", [
    (["1,2\n", "\n", "3,4\r5,6\n"], None),
    (["1,2\r\r\n"], None),
    (["1,2\n", "3,4\r"], None),
    (["1,2\r\n", "3,4\r\n"], [[1.0, 2.0], [3.0, 4.0]]),
])
def test_parse_block_leaves_a_bare_carriage_return_to_the_per_line_reader(block, rows):
    """numpy's parser may end a row at a bare carriage return, or refuse
    one inside a line; the per-line reader keeps it in the line and strips
    it at the end.  CRLF endings stay with the parser."""
    got = cli._parse_block(block, None)
    assert (got if got is None else got.tolist()) == rows


# Runs cli.main under an address-space limit set above what the process
# holds once the library is imported, which differs between platforms.
_LIMITED = """
import resource, sys
from countcomp import cli
with open("/proc/self/status") as fh:
    held = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (held + int(sys.argv[1]) * 2**20,
                                        resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""
LIMITED_ROWS = 200_000


@pytest.fixture(scope="module")
def large_compositions(tmp_path_factory):
    """200 copies of 1000 seeded rows, and the last row."""
    x = np.random.default_rng(26).dirichlet([1.5, 2.0, 0.7], size=1000)
    path = tmp_path_factory.mktemp("csv") / "compositions.csv"
    path.write_text("x1,x2,x3\n" + "".join(_csv_line(row) for row in x) * (LIMITED_ROWS // 1000))
    return path, x[-1]


def _run_limited(headroom_mb, argv, stdin_path, stdout_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    with open(stdin_path) as stdin, open(stdout_path, "w") as stdout:
        return subprocess.run(
            [sys.executable, "-W", "error", "-c", _LIMITED, str(headroom_mb), *argv],
            stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=600)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestBoundedMemory:
    """2x10^5 rows of 3 columns: mapping them takes the block reader about
    28 MB above the import, and a reader with a Python list per row about
    62 MB."""

    def test_transform_fits_where_a_list_per_row_does_not(self, large_compositions, tmp_path):
        path, last = large_compositions
        out = tmp_path / "y.csv"
        res = _run_limited(42, ["transform", "ratio", "forward", "--jacobian"], path, out)
        assert (res.returncode, res.stderr) == (0, "")
        lines = out.read_text().splitlines()
        assert len(lines) == LIMITED_ROWS + 1
        y = ratio_forward(Composition(last))
        assert lines[-1] == _csv_line([*y.entries, log_det_jacobian_ratio_inverse(y, 3)])[:-1]

    def test_out_of_memory_is_one_error_line(self, large_compositions, tmp_path):
        path, _ = large_compositions
        out = tmp_path / "y.csv"
        res = _run_limited(10, ["transform", "ratio", "forward", "--jacobian"], path, out)
        assert res.returncode == 1
        assert res.stderr == ("error: out of memory: this transform job needs more memory than "
                              "the process may use\n")
        assert out.read_text() == ""


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
