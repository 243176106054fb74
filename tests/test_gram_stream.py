import numpy as np
import pytest

from rankdyn import (
    Centering,
    Engine,
    HiddenStateMatrix,
    erank_from_gram,
    prefix_metric_series,
    spectral_summary,
)
from rankdyn.dynamics import eval_steps
from rankdyn.errors import DegenerateMatrix, DimensionMismatch
from rankdyn.gram_stream import GramStreamState, gram_prefix_eranks
from rankdyn.verify import FIXTURES, engine_drift, hard_fixture


def test_first_chunk_is_direct_product():
    chunk = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = GramStreamState(2).extend(chunk)
    np.testing.assert_allclose(state.scatter, chunk.T @ chunk)
    np.testing.assert_allclose(state.row_sum, chunk.sum(axis=0))
    assert state.t == 2


def test_two_chunks_match_dense_product():
    data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    state = GramStreamState(2)
    state.extend(data[:2]).extend(data[2:])
    np.testing.assert_allclose(state.scatter, data.T @ data, atol=1e-12)
    assert state.t == 4


def test_extend_dimension_mismatch():
    state = GramStreamState(3)
    with pytest.raises(DimensionMismatch):
        state.extend(np.ones((2, 4)))
    with pytest.raises(DimensionMismatch):
        state.extend(np.ones((0, 3)))


def test_gram_entries_are_inner_products():
    # the scatter is the Gram matrix of the columns
    rng = np.random.default_rng(0)
    data = rng.standard_normal((9, 4))
    state = GramStreamState(4)
    for i in range(0, 9, 3):
        state.extend(data[i : i + 3])
    for i in (0, 2, 3):
        for j in (1, 2, 3):
            assert abs(state.scatter[i, j] - data[:, i] @ data[:, j]) < 1e-10


def test_gram_symmetric_psd_after_every_extend():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((24, 6))
    state = GramStreamState(6)
    for i in range(0, 24, 4):
        state.extend(data[i : i + 4])
        s = state.scatter
        assert np.max(np.abs(s - s.T)) < 1e-10
        eigvals = np.linalg.eigvalsh(s)
        assert eigvals.min() >= -1e-8 * np.trace(s)


def test_erank_from_gram_trivial_cases():
    assert erank_from_gram(np.eye(5)) == pytest.approx(5.0, abs=1e-12)
    v = np.array([1.0, 2.0, 3.0])
    assert erank_from_gram(np.outer(v, v)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateMatrix):
        erank_from_gram(np.zeros((3, 3)))


def test_erank_from_gram_matches_svd_path():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((10, 4))
    via_gram = erank_from_gram(data @ data.T)
    via_svd = spectral_summary(HiddenStateMatrix(data)).effective_rank
    assert via_gram == pytest.approx(via_svd, rel=1e-8)


def test_chunking_associativity():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((12, 4))
    scatters = []
    for sizes in ([12], [3, 9], [4, 4, 4], [1] * 12, [5, 1, 6]):
        state = GramStreamState(4)
        start = 0
        for size in sizes:
            state.extend(data[start : start + size])
            start += size
        scatters.append(state.scatter.copy())
    for s in scatters[1:]:
        np.testing.assert_allclose(s, scatters[0], atol=1e-10)


def test_single_prefix_equals_one_shot():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((9, 5))
    series = gram_prefix_eranks(data, [8], Centering.RAW)
    direct = spectral_summary(HiddenStateMatrix(data[:8])).effective_rank
    assert series[0] == pytest.approx(direct, rel=1e-10)


# Each fixture at T < D, at T = D, and at T > D with prefixes on both sides of D.
SHAPES = [(17, 24), (24, 24), (64, 8)]


def assert_gram_matches_oracle(stride, centering):
    for fixture in FIXTURES:
        for rows, dims in SHAPES:
            rows = max(rows, stride * 3 + 1)
            matrix = hard_fixture(fixture, rows, dims, seed=rows + dims + stride)
            drift = engine_drift(matrix, stride, centering, Engine.INCREMENTAL_GRAM)
            assert drift <= 1e-8, (fixture, rows, dims, drift)


@pytest.mark.parametrize("stride", [1, 8, 40])
def test_stream_matches_naive_series(stride):
    assert_gram_matches_oracle(stride, Centering.RAW)


@pytest.mark.parametrize("stride", [2, 8])
def test_stream_matches_naive_series_centered(stride):
    assert_gram_matches_oracle(stride, Centering.ROW_MEAN_CENTERED)


def test_centered_stream_stride_one_starts_at_two_rows():
    # a one-row prefix cannot be centered, so both engines start at t=2
    data = np.random.default_rng(9).standard_normal((5, 3))
    steps = eval_steps(5, 1, Centering.ROW_MEAN_CENTERED)
    streamed = gram_prefix_eranks(data, steps, Centering.ROW_MEAN_CENTERED)
    factor = prefix_metric_series(
        HiddenStateMatrix(data), 1, Centering.ROW_MEAN_CENTERED, Engine.FACTOR
    )
    assert factor.eval_steps == (2, 3, 4)
    np.testing.assert_allclose(streamed, [*factor.prefix_values, factor.final], rtol=1e-8)
