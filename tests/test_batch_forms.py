"""Property tests of the batch forms (``*_rows``).

Each batch form must equal its scalar entry point with ``==``, row by
row, over the whole parameter range: n in 2..10, shapes and
concentrations in [1e-2, 1e3], totals up to 2000, and probabilities
near 0 and 1.  ``TestNormalization`` checks that the multinomial and
Dirichlet-Multinomial masses over every composition of m sum to 1, and
``TestChecks`` the checks the batch forms make on their input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countcomp.checks import _composition_matrix
from countcomp.distributions import (
    CountVector,
    _log_multinomial_coefficient,
    DirichletParams,
    GammaMixtureParams,
    alr_dirichlet_log_pdf,
    alr_dirichlet_log_pdf_rows,
    dirichlet_log_pdf,
    dirichlet_log_pdf_rows,
    dirichlet_multinomial_log_pmf,
    dirichlet_multinomial_log_pmf_rows,
    inverted_dirichlet_log_pdf,
    inverted_dirichlet_log_pdf_rows,
    multinomial_log_pmf,
    multinomial_log_pmf_rows,
    negative_binomial_log_pmf,
    negative_binomial_log_pmf_rows,
    normalized_nb_log_pmf,
    normalized_nb_log_pmf_rows,
)
from countcomp.simplex import Composition, LogRatioVector, RatioVector, RowError
from countcomp.special import (
    _log_gamma_map,
    log_multivariate_beta,
    log_multivariate_beta_rows,
    log_sum_exp,
)

SHAPE = st.floats(1e-2, 1e3)
# NB shapes on both sides of the series threshold of 10^6.
NB_SHAPE = st.one_of(SHAPE, st.floats(1e6, 1e300))
SEED = st.integers(0, 2**32 - 1)
ROWS = st.integers(1, 6)
# Probabilities near 0 and 1: decimal exponents down to -300, normalized.
LOG10_WEIGHT = st.floats(-300.0, 0.0)


def _vectors(n: int, elements) -> st.SearchStrategy:
    return st.lists(elements, min_size=n, max_size=n)


def _probs(exponents) -> Composition:
    raw = 10.0 ** np.asarray(exponents)
    return Composition(raw / raw.sum())


def _counts(n: int, rows: int, seed: int) -> np.ndarray:
    """``rows`` count vectors of length n with totals up to 2000, from
    skewed cell probabilities."""
    rng = np.random.default_rng(seed)
    totals = rng.integers(0, 2001, size=rows)
    return rng.multinomial(totals, rng.dirichlet(np.full(n, 0.3)))


@st.composite
def _dimension_and(draw, element_strategies):
    n = draw(st.integers(2, 10))
    return (n,) + tuple(draw(make(n)) for make in element_strategies)


batch_settings = settings(max_examples=60, deadline=None)


class TestCountMasses:
    @given(_dimension_and([lambda n: _vectors(n, LOG10_WEIGHT)]), ROWS, SEED)
    @batch_settings
    def test_multinomial_rows_equal_scalar(self, n_and_exponents, rows, seed):
        n, exponents = n_and_exponents
        probs = _probs(exponents)
        x = _counts(n, rows, seed)
        got = multinomial_log_pmf_rows(x.sum(axis=1), probs, x)
        want = [multinomial_log_pmf(int(row.sum()), probs, CountVector(row)) for row in x]
        assert got.tolist() == want

    def test_multinomial_coefficient_is_a_left_fold(self):
        # The one-point and batch forms agree only if both add the
        # log-factorials left to right.  From Python 3.12 on, sum() of
        # floats is compensated and differs from the fold on about 30 %
        # of these vectors.
        rng = np.random.default_rng(15)
        for _ in range(2000):
            counts = rng.integers(0, 2001, rng.integers(2, 11)).tolist()
            folded = math.lgamma(counts[0] + 1.0)
            for c in counts[1:]:
                folded += math.lgamma(c + 1.0)
            want = math.lgamma(sum(counts) + 1.0) - folded
            assert _log_multinomial_coefficient(_log_gamma_map, sum(counts), counts) == want

    @given(_dimension_and([lambda n: _vectors(n, SHAPE)]), ROWS, SEED)
    @batch_settings
    def test_dirichlet_multinomial_rows_equal_scalar(self, n_and_shapes, rows, seed):
        n, shapes = n_and_shapes
        x = _counts(n, rows, seed)
        got = dirichlet_multinomial_log_pmf_rows(shapes, x.sum(axis=1), x)
        want = [dirichlet_multinomial_log_pmf(shapes, int(row.sum()), CountVector(row)) for row in x]
        assert got.tolist() == want

    @pytest.mark.parametrize("shapes", [
        [0.3, 2.0, 17.5],
        [1, 2, 5],
        (0.3, 2.0, 17.5),
        np.array([0.3, 2.0, 17.5]),
        np.array([0.3, 2.0, 17.5], dtype=np.float32),
        GammaMixtureParams([0.3, 2.0, 17.5], 1.5),
        DirichletParams([0.3, 2.0, 17.5]),
    ], ids=["float list", "int list", "tuple", "float array", "float32 array",
            "GammaMixtureParams", "DirichletParams"])
    def test_dirichlet_multinomial_point_equals_its_batch_row_for_every_shape_form(self, shapes):
        x = _counts(3, 6, 38)
        got = [dirichlet_multinomial_log_pmf(shapes, int(row.sum()), CountVector(row)) for row in x]
        want = dirichlet_multinomial_log_pmf_rows(shapes, x.sum(axis=1), x).tolist()
        assert all(type(value) is float for value in got)
        assert [value.hex() for value in got] == [value.hex() for value in want]

    @given(NB_SHAPE, st.floats(1e-12, 1.0 - 1e-12),
           st.lists(st.integers(0, 2000), min_size=1, max_size=20))
    @batch_settings
    def test_negative_binomial_rows_equal_scalar(self, big_r, p, totals):
        got = negative_binomial_log_pmf_rows(big_r, p, totals)
        assert got.tolist() == [negative_binomial_log_pmf(big_r, p, m) for m in totals]

    @given(
        st.lists(NB_SHAPE, min_size=2, max_size=10),
        st.floats(1e-6, 1e6),
        st.lists(st.tuples(st.integers(0, 2000), st.floats(0.0, 1.0)), min_size=1, max_size=20),
    )
    @batch_settings
    def test_normalized_nb_rows_equal_scalar(self, shapes, theta, pairs):
        params = GammaMixtureParams(shapes, theta)
        m = [total for total, _ in pairs]
        k = [math.floor(total * share) for total, share in pairs]
        got = normalized_nb_log_pmf_rows(params, 0, k, m)
        assert got.tolist() == [normalized_nb_log_pmf(params, 0, *pair) for pair in zip(k, m)]


class TestDensities:
    @given(_dimension_and([lambda n: _vectors(n, SHAPE)]), ROWS, SEED)
    @batch_settings
    def test_log_multivariate_beta_rows_equal_scalar(self, n_and_alpha, rows, seed):
        n, alpha = n_and_alpha
        rng = np.random.default_rng(seed)
        # One row as drawn, the others permuted and rescaled copies of it.
        arr = np.array([alpha] + [rng.permutation(alpha) * rng.uniform(0.5, 2.0) for _ in range(rows - 1)])
        arr = np.clip(arr, 1e-2, 1e3)
        assert log_multivariate_beta_rows(arr).tolist() == [log_multivariate_beta(a) for a in arr]

    @given(st.integers(2, 10), ROWS, SEED, st.booleans())
    @batch_settings
    def test_dirichlet_rows_equal_scalar(self, n, rows, seed, shared_alpha):
        rng = np.random.default_rng(seed)
        alpha = 10.0 ** rng.uniform(-2.0, 3.0, size=(rows, n))
        raw = 10.0 ** rng.uniform(-300.0, 0.0, size=(rows, n))
        points = [Composition(row) for row in raw / raw.sum(axis=1, keepdims=True)]
        x = np.array([c.entries for c in points])
        got = dirichlet_log_pdf_rows(alpha[0] if shared_alpha else alpha, x)
        want = [
            dirichlet_log_pdf(DirichletParams(alpha[0] if shared_alpha else a), c)
            for a, c in zip(alpha, points)
        ]
        assert got.tolist() == want

    @given(st.integers(2, 10), ROWS, SEED)
    @batch_settings
    def test_inverted_dirichlet_rows_equal_scalar(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        alpha = 10.0 ** rng.uniform(-2.0, 3.0, size=(rows, n))
        y = 10.0 ** rng.uniform(-6.0, 6.0, size=(rows, n - 1))
        got = inverted_dirichlet_log_pdf_rows(alpha, y)
        want = [inverted_dirichlet_log_pdf(DirichletParams(a), RatioVector(v)) for a, v in zip(alpha, y)]
        assert got.tolist() == want

    @given(st.integers(2, 10), ROWS, SEED)
    @batch_settings
    def test_alr_dirichlet_rows_equal_scalar(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        alpha = 10.0 ** rng.uniform(-2.0, 3.0, size=(rows, n))
        y = rng.uniform(-50.0, 50.0, size=(rows, n - 1))
        got = alr_dirichlet_log_pdf_rows(alpha, y)
        want = [alr_dirichlet_log_pdf(DirichletParams(a), LogRatioVector(v)) for a, v in zip(alpha, y)]
        assert got.tolist() == want


# Row sums of fewer than 8 terms are folded in Python, longer ones go to
# numpy's pairwise sum: the lengths on both sides of the switch, and one
# past numpy's 8-way unrolled blocks.
FOLD_EDGES = [7, 8, 9, 130]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestPointEqualsBatchAtTheFoldEdge:
    """The one-point forms sum their rows of ``entries`` terms as Python
    floats, the batch forms as numpy columns; both give each row numpy's
    bits, compared by ``float.hex``."""

    @staticmethod
    def _alpha(rng, n):
        return (10.0 ** rng.uniform(-2.0, 3.0, n)).tolist()

    @pytest.mark.parametrize("entries", FOLD_EDGES)
    def test_dirichlet(self, entries):
        rng = np.random.default_rng(entries)
        alpha = self._alpha(rng, entries)
        raw = 10.0 ** rng.uniform(-300.0, 0.0, (4, entries))
        points = [Composition(row) for row in (raw / raw.sum(axis=1, keepdims=True)).tolist()]
        got = [dirichlet_log_pdf(DirichletParams(alpha), c) for c in points]
        want = dirichlet_log_pdf_rows(alpha, np.array([c.entries for c in points]))
        assert _hex(got) == _hex(want)

    @pytest.mark.parametrize("entries", FOLD_EDGES)
    def test_inverted_dirichlet(self, entries):
        rng = np.random.default_rng(entries)
        alpha = self._alpha(rng, entries + 1)
        y = 10.0 ** rng.uniform(-6.0, 6.0, (4, entries))
        got = [inverted_dirichlet_log_pdf(DirichletParams(alpha), RatioVector(row)) for row in y]
        assert _hex(got) == _hex(inverted_dirichlet_log_pdf_rows(alpha, y))

    @pytest.mark.parametrize("entries", FOLD_EDGES)
    def test_alr_dirichlet(self, entries):
        rng = np.random.default_rng(entries)
        alpha = self._alpha(rng, entries + 1)
        y = rng.uniform(-50.0, 50.0, (4, entries))
        got = [alr_dirichlet_log_pdf(DirichletParams(alpha), LogRatioVector(row)) for row in y]
        assert _hex(got) == _hex(alr_dirichlet_log_pdf_rows(alpha, y))

    @pytest.mark.parametrize("entries", FOLD_EDGES)
    def test_multinomial(self, entries):
        rng = np.random.default_rng(entries)
        probs = _probs(rng.uniform(-300.0, 0.0, entries))
        x = _counts(entries, 4, entries)
        got = [multinomial_log_pmf(int(row.sum()), probs, CountVector(row)) for row in x]
        assert _hex(got) == _hex(multinomial_log_pmf_rows(x.sum(axis=1), probs, x))


class TestNormalization:
    @given(st.integers(2, 5), st.integers(0, 10), st.data())
    @batch_settings
    def test_multinomial_masses_sum_to_one_at_skewed_probabilities(self, n, m, data):
        probs = _probs(data.draw(_vectors(n, LOG10_WEIGHT)))
        total = log_sum_exp(multinomial_log_pmf_rows(m, probs, _composition_matrix(n, m)))
        assert abs(math.expm1(total)) <= 1e-10

    @given(st.integers(2, 5), st.integers(0, 10), st.data())
    @batch_settings
    def test_dirichlet_multinomial_masses_sum_to_one_at_tiny_shapes(self, n, m, data):
        shapes = data.draw(_vectors(n, st.floats(1e-2, 0.5)))
        total = log_sum_exp(dirichlet_multinomial_log_pmf_rows(shapes, m, _composition_matrix(n, m)))
        assert abs(math.expm1(total)) <= 1e-10


class TestChecks:
    def test_wrong_total_names_the_first_bad_row(self):
        x = [[1, 2], [2, 2], [0, 3], [3, 1]]
        with pytest.raises(RowError, match="counts sum to 4, expected total m=3") as info:
            dirichlet_multinomial_log_pmf_rows([1.0, 2.0], 3, x)
        assert info.value.row == 1
        with pytest.raises(RowError) as info:
            multinomial_log_pmf_rows([3, 4, 3, 5], Composition([0.5, 0.5]), x)
        assert info.value.row == 3

    def test_totals_past_int64_are_exact(self):
        # An int64 row sum would wrap to a negative total here.
        x = np.array([[2**62, 2**62], [2**62, 2**62 + 1]])
        probs = Composition([0.5, 0.5])
        got = multinomial_log_pmf_rows([2**63, 2**63 + 1], probs, x)
        want = [multinomial_log_pmf(int(row[0]) + int(row[1]), probs, CountVector(row)) for row in x]
        assert got.tolist() == want
        with pytest.raises(RowError, match=f"counts sum to {2**63}"):
            multinomial_log_pmf_rows(2**63 - 1, probs, x[:1])

    def test_bad_alpha_and_points(self):
        y = np.ones((3, 2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            inverted_dirichlet_log_pdf_rows([1.0, 2.0], y)
        with pytest.raises(ValueError, match="dimension mismatch"):
            alr_dirichlet_log_pdf_rows(np.ones((2, 3)), y)
        with pytest.raises(RowError, match="strictly positive") as info:
            alr_dirichlet_log_pdf_rows([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]], y)
        assert info.value.row == 1
        with pytest.raises(RowError, match="sum to") as info:
            dirichlet_log_pdf_rows([1.0, 1.0], [[0.5, 0.5], [0.5, 0.6]])
        assert info.value.row == 1

    def test_pair_past_its_total(self):
        params = GammaMixtureParams([1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="k=3 exceeds the total m=2"):
            normalized_nb_log_pmf_rows(params, 0, [0, 3], [1, 2])
        with pytest.raises(RowError, match="^m entries must be integers$"):
            negative_binomial_log_pmf_rows(2.0, 0.5, [1, 2.5])

    @pytest.mark.parametrize("k, m", [
        (1, 3),
        ([[1], [2]], [3, 4, 5]),
        (np.zeros((0, 2), dtype=int), 4),
    ])
    def test_counts_in_the_broadcast_shape(self, k, m):
        # 0-d counts included: an ndarray of shape (), not a numpy scalar.
        params = GammaMixtureParams([1.0, 1.0], 1.0)
        got = negative_binomial_log_pmf_rows(2.0, 0.5, m)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(m)
        assert got.ravel().tolist() == [negative_binomial_log_pmf(2.0, 0.5, int(m_i))
                                        for m_i in np.ravel(m)]
        pairs = np.broadcast_arrays(np.asarray(k), np.asarray(m))
        got = normalized_nb_log_pmf_rows(params, 0, k, m)
        assert isinstance(got, np.ndarray) and got.shape == pairs[0].shape
        assert got.ravel().tolist() == [normalized_nb_log_pmf(params, 0, int(k_i), int(m_i))
                                        for k_i, m_i in zip(*(a.ravel() for a in pairs))]

    def test_huge_totals_refused(self):
        # The batch forms hold counts in int64, as the CountVector does.
        params = GammaMixtureParams([1.0, 1.0], 1.0)
        with pytest.raises(RowError, match=r"^m entries must be below 2\*\*63 \(int64\)$"):
            negative_binomial_log_pmf_rows(2.0, 0.5, [3, 2**63])
        with pytest.raises(RowError, match=r"^k entries must be below 2\*\*63 \(int64\)$"):
            normalized_nb_log_pmf_rows(params, 0, [2**64], [2**64])

    def test_pair_past_its_total_compared_exactly(self):
        # As floats, 2**53 + 1 rounds to 2**53 and the first pair ties.
        params = GammaMixtureParams([1.0, 1.0], 1.0)
        for k, m in ((2**53 + 1, 2**53), (2**62, 2**61)):
            with pytest.raises(ValueError) as scalar:
                normalized_nb_log_pmf(params, 0, k, m)
            with pytest.raises(ValueError) as batch:
                normalized_nb_log_pmf_rows(params, 0, [0, k], [1, m])
            assert str(batch.value) == str(scalar.value) == f"k={k} exceeds the total m={m}"
