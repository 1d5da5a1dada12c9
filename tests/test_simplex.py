"""Tests for the simplex coordinate maps and their Jacobians."""

import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countcomp import (
    Composition,
    LogRatioVector,
    RatioVector,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_forward,
    log_ratio_inverse,
    ratio_forward,
    ratio_inverse,
)
from countcomp.checks import _fd_log_det_rows
from countcomp.simplex import (
    RowError,
    composition_rows,
    log_ratio_inverse_rows,
    log_ratio_rows,
    ratio_inverse_rows,
    ratio_rows,
)


def random_composition(rng, n):
    raw = rng.uniform(0.05, 1.0, size=n)
    return Composition(raw / raw.sum())


class TestComposition:
    def test_renormalizes_float_noise(self):
        x = Composition([0.2 + 1e-12, 0.3, 0.5])
        assert x.entries.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_sum_deviation(self):
        with pytest.raises(ValueError, match="away from 1"):
            Composition([0.2, 0.3, 0.5 + 1e-6])

    def test_rejects_boundary(self):
        with pytest.raises(ValueError, match="positive"):
            Composition([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            Composition([1.0, -0.5, 0.5])
        with pytest.raises(ValueError, match="positive"):
            Composition([1.0, 1e-310])  # subnormal: effectively zero

    def test_rejects_scalar_and_short(self):
        with pytest.raises(ValueError):
            Composition([1.0])
        with pytest.raises(ValueError):
            Composition([0.5, math.nan, 0.5])

    def test_entries_read_only(self):
        x = Composition([0.4, 0.6])
        with pytest.raises(ValueError):
            x.entries[0] = 0.9


class TestRowValidators:
    """The batch validators apply the value objects' rules row by row."""

    BAD_ROWS = {
        (composition_rows, Composition): (
            [0.2, 0.3, 0.6], [0.5, math.nan, 0.5], [0.5, 0.5, 0.0], [0.5, math.inf, -math.inf],
            [0.5, 0.5, 1e-310], [1.5, -0.5, 0.0],
        ),
        (ratio_rows, RatioVector): ([0.5, 0.0], [math.inf, 1.0], [-1.0, 2.0], [math.nan, 1.0]),
        (log_ratio_rows, LogRatioVector): ([0.5, math.nan], [-math.inf, 1.0]),
    }

    @pytest.mark.parametrize("check, value_object", BAD_ROWS, ids=lambda f: f.__name__)
    def test_message_and_row_match_the_value_object(self, check, value_object):
        good = [0.2, 0.3, 0.5] if value_object is Composition else [0.25, 0.75]
        for bad in self.BAD_ROWS[check, value_object]:
            with pytest.raises(ValueError) as single:
                value_object(bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RowError) as batch:
                    check([good, good, bad, good])
            assert batch.value.row == 2
            assert str(batch.value) == str(single.value)

    def test_first_bad_row_wins_then_first_rule(self):
        good = [0.2, 0.3, 0.5]
        with pytest.raises(RowError, match="away from 1") as info:
            composition_rows([good, [0.2, 0.3, 0.6], [0.5, math.nan, 0.5]])
        assert info.value.row == 1
        # Non-finite, boundary and sum rules all fail row 1; finiteness is checked first.
        with pytest.raises(RowError, match="finite") as info:
            composition_rows([good, [math.inf, 0.0, 0.5], [0.0, 0.5, 0.5]])
        assert info.value.row == 1

    def test_rows_read_only_and_renormalized(self):
        rows = composition_rows([[0.2 + 1e-12, 0.3, 0.5], [0.5, 0.5, 1e-300]])
        assert not rows.flags.writeable
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-15)
        assert composition_rows(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(RowError, match="length >= 2"):
            composition_rows([[1.0], [1.0]])


class TestRatioTransform:
    def test_forward_equal_parts(self):
        y = ratio_forward(Composition([0.5, 0.5]))
        np.testing.assert_allclose(y.entries, [1.0])
        assert y.z == pytest.approx(2.0)

    def test_forward_three_parts(self):
        y = ratio_forward(Composition([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(y.entries, [0.4, 0.6])

    def test_forward_symmetric(self):
        y = ratio_forward(Composition([0.25] * 4))
        np.testing.assert_allclose(y.entries, [1.0, 1.0, 1.0])

    def test_inverse_known(self):
        np.testing.assert_allclose(ratio_inverse(RatioVector([1.0])).entries, [0.5, 0.5])
        np.testing.assert_allclose(
            ratio_inverse(RatioVector([0.4, 0.6])).entries, [0.2, 0.3, 0.5], rtol=1e-15
        )

    def test_round_trips(self):
        rng = np.random.default_rng(13)
        for n in range(2, 9):
            for _ in range(1000):
                x = random_composition(rng, n)
                back = ratio_inverse(ratio_forward(x))
                np.testing.assert_allclose(back.entries, x.entries, rtol=1e-12)


class TestLogRatioTransform:
    def test_forward_known(self):
        np.testing.assert_allclose(
            log_ratio_forward(Composition([0.5, 0.5])).entries, [0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            log_ratio_forward(Composition([0.2, 0.3, 0.5])).entries,
            [math.log(0.4), math.log(0.6)],
            rtol=1e-14,
        )

    def test_forward_unit_entry_pattern(self):
        # x_1 = e/(n-1+e), the rest 1/(n-1+e): first log-ratio entry is 1.
        for n in (2, 4, 6):
            denom = n - 1.0 + math.e
            x = Composition([math.e / denom] + [1.0 / denom] * (n - 1))
            assert log_ratio_forward(x).entries[0] == pytest.approx(1.0, rel=1e-14)

    def test_inverse_known(self):
        np.testing.assert_allclose(
            log_ratio_inverse(LogRatioVector([0.0])).entries, [0.5, 0.5]
        )
        np.testing.assert_allclose(
            log_ratio_inverse(LogRatioVector([math.log(0.4), math.log(0.6)])).entries,
            [0.2, 0.3, 0.5],
            rtol=1e-14,
        )

    def test_inverse_shift_stable(self):
        x = log_ratio_inverse(LogRatioVector([700.0, 700.0]))
        assert np.all(np.isfinite(x.entries))
        np.testing.assert_allclose(x.entries[:2], [0.5, 0.5], rtol=1e-12)
        assert x.entries[2] < 1e-300 * 1e10  # essentially zero but positive

    def test_round_trips(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            for _ in range(1000):
                x = random_composition(rng, n)
                back = log_ratio_inverse(log_ratio_forward(x))
                np.testing.assert_allclose(back.entries, x.entries, rtol=1e-12)

    def test_chart_consistency(self):
        rng = np.random.default_rng(19)
        for n in range(2, 7):
            x = random_composition(rng, n)
            np.testing.assert_allclose(
                log_ratio_forward(x).entries,
                np.log(ratio_forward(x).entries),
                rtol=1e-12,
                atol=1e-14,
            )

    def test_log_k_matches_naive(self):
        y = LogRatioVector([0.3, -1.2, 2.0])
        naive = 1.0 + np.exp(y.entries).sum()
        assert y.k == pytest.approx(naive, rel=1e-12)
        assert y.k > 1.0

    @pytest.mark.parametrize("entries", [[1000.0], [710.0, 709.0], [1e308, -1e308]])
    def test_k_past_the_largest_float_is_inf(self, entries):
        assert LogRatioVector(entries).k == math.inf

    def test_k_below_the_largest_float_is_finite(self):
        y = LogRatioVector([709.0])
        assert y.k == math.exp(y.log_k) < math.inf


# A row whose shift to its largest entry overflows maps to an exact 0,
# which the Composition rule refuses.
BOUNDARY = ("Composition entries must be strictly positive normal floats; "
            "boundary points are rejected rather than clamped")


class TestLogRatioInverseAtHugeCoordinates:
    def test_scalar_refuses_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + BOUNDARY + "$"):
                log_ratio_inverse(LogRatioVector([-1.7e308, 1.7e308]))

    def test_batch_names_the_row_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RowError, match="^" + BOUNDARY + "$") as info:
                log_ratio_inverse_rows([[0.0, 0.0], [-1.7e308, 1.7e308], [1.0, 2.0]])
        assert info.value.row == 1

    def test_cli_prints_one_error_line(self):
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "countcomp.cli", "transform", "alr", "inverse"],
            input="y1,y2\n0,0\n-1.7e308,1.7e308\n", capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"error: row 3: {BOUNDARY}\n"


def _exact_log_ratio_log_det(entries) -> float:
    """sum(y) - n log(1 + sum(exp(y))) in 50-digit mpmath, rounded to a
    float: -inf below the most negative float."""
    with mpmath.workdps(50):
        y = [mpmath.mpf(v) for v in entries]
        exact = mpmath.fsum(y) - (len(y) + 1) * mpmath.log(1 + mpmath.fsum(map(mpmath.exp, y)))
        return -math.inf if exact < -sys.float_info.max else float(exact)


class TestLogRatioLogDetAtHugeCoordinates:
    # Where sum(y) or n log k overflows, though the log-det may not.
    @pytest.mark.parametrize("entries", [
        [1e308, 1e308], [1.7e308, 1.7e308], [1e308, -1e308],
        [1.7e308, 1.7e308, -1.7e308], [1e308, 1e308, 1e308], [-1.7e308, -1.7e308],
        [-1e308, 5.0], [0.3, -1.2, 2.0],
    ])
    def test_matches_mpmath_without_a_warning(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_det_jacobian_log_ratio_inverse(LogRatioVector(entries), len(entries) + 1)
        want = _exact_log_ratio_log_det(entries)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-15)


class TestJacobians:
    def test_ratio_known_values(self):
        assert log_det_jacobian_ratio_inverse(RatioVector([1.0]), 2) == pytest.approx(
            -2.0 * math.log(2.0)
        )
        assert log_det_jacobian_ratio_inverse(RatioVector([0.4, 0.6]), 3) == pytest.approx(
            -3.0 * math.log(2.0)
        )

    def test_alr_known_values(self):
        assert log_det_jacobian_log_ratio_inverse(LogRatioVector([0.0]), 2) == pytest.approx(
            -2.0 * math.log(2.0)
        )
        assert log_det_jacobian_log_ratio_inverse(
            LogRatioVector([0.0, 0.0]), 3
        ) == pytest.approx(-3.0 * math.log(3.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_det_jacobian_ratio_inverse(RatioVector([1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            log_det_jacobian_log_ratio_inverse(LogRatioVector([0.0]), 3)

    def test_ratio_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for _ in range(20):
                y = RatioVector(rng.uniform(0.1, 3.0, size=n - 1))
                closed = log_det_jacobian_ratio_inverse(y, n)
                fd = _fd_log_det_rows(ratio_inverse_rows, y.entries[None])[0]
                assert math.exp(fd - closed) == pytest.approx(1.0, rel=1e-6)

    def test_alr_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for n in range(2, 7):
            for _ in range(20):
                y = LogRatioVector(rng.uniform(-2.0, 2.0, size=n - 1))
                closed = log_det_jacobian_log_ratio_inverse(y, n)
                fd = _fd_log_det_rows(log_ratio_inverse_rows, y.entries[None])[0]
                assert math.exp(fd - closed) == pytest.approx(1.0, rel=1e-6)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_jacobian_chain_identity(self, entries):
        # Changing parameterization from log-ratios to ratios multiplies
        # the Jacobian by prod(e^{y_i}).
        n = len(entries) + 1
        alr = LogRatioVector(entries)
        ratio = RatioVector(np.exp(entries))
        lhs = log_det_jacobian_log_ratio_inverse(alr, n)
        rhs = log_det_jacobian_ratio_inverse(ratio, n) + sum(entries)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


FD_ROUTES = [ratio_inverse_rows, log_ratio_inverse_rows]


def _reversed_on(bad):
    """``ratio_inverse_rows`` with the first two output coordinates
    swapped on the rows ``bad``: the chart's orientation reverses there."""

    def inverse_rows(y):
        x, log_det = ratio_inverse_rows(y)
        x = x.copy()
        x[bad, :2] = x[bad, 1::-1]
        return x, log_det

    return inverse_rows


class TestFiniteDifferenceRows:
    @pytest.mark.parametrize("inverse_rows", FD_ROUTES)
    def test_log_dets_of_a_batch_equal_each_row_alone(self, inverse_rows):
        rng = np.random.default_rng(37)
        for n in range(2, 7):
            y = rng.uniform(0.1, 3.0, size=(20, n - 1))
            alone = [_fd_log_det_rows(inverse_rows, v[None])[0] for v in y]
            assert _fd_log_det_rows(inverse_rows, y).tolist() == alone

    def test_reversed_orientation_names_the_first_such_row(self):
        y = np.random.default_rng(41).uniform(0.1, 3.0, size=(6, 2))
        with pytest.raises(RowError, match="non-positive determinant") as info:
            _fd_log_det_rows(_reversed_on([2, 4]), y)
        assert info.value.row == 2
        assert np.isfinite(_fd_log_det_rows(_reversed_on([]), y)).all()
