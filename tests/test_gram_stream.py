import numpy as np
import pytest

from rankdyn import (
    Centering,
    Engine,
    GramStreamState,
    HiddenStateMatrix,
    erank_from_gram,
    prefix_metric_series,
    spectral_summary,
    stream_prefix_eranks,
)
from rankdyn.errors import DegenerateMatrix, DimensionMismatch, TooFewRows


def test_first_chunk_is_direct_product():
    chunk = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = GramStreamState(2).extend(chunk)
    np.testing.assert_allclose(state.uncentered_gram, chunk @ chunk.T)
    np.testing.assert_allclose(state.row_sum, chunk.sum(axis=0))


def test_two_chunks_match_dense_product():
    data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    state = GramStreamState(2)
    state.extend(data[:2]).extend(data[2:])
    np.testing.assert_allclose(state.uncentered_gram, data @ data.T, atol=1e-12)


def test_extend_dimension_mismatch():
    state = GramStreamState(3)
    with pytest.raises(DimensionMismatch):
        state.extend(np.ones((2, 4)))
    with pytest.raises(DimensionMismatch):
        state.extend(np.ones((0, 3)))


def test_gram_entries_are_inner_products():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((9, 4))
    state = GramStreamState(4)
    for i in range(0, 9, 3):
        state.extend(data[i : i + 3])
    for i in (0, 4, 8):
        for j in (1, 5, 7):
            assert abs(state.uncentered_gram[i, j] - data[i] @ data[j]) < 1e-10


def test_gram_symmetric_psd_after_every_extend():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((24, 6))
    state = GramStreamState(6)
    for i in range(0, 24, 4):
        state.extend(data[i : i + 4])
        u = state.uncentered_gram
        assert np.max(np.abs(u - u.T)) < 1e-10
        eigvals = np.linalg.eigvalsh(u)
        assert eigvals.min() >= -1e-8 * np.trace(u)


def test_centered_gram_mean_zero_rows():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((8, 3))
    data -= data.mean(axis=0)
    state = GramStreamState(3).extend(data)
    np.testing.assert_allclose(
        state.centered_gram(), state.uncentered_gram, atol=1e-10
    )


def test_centered_gram_identical_rows_vanish():
    data = np.tile(np.array([[1.0, -2.0, 0.5]]), (2, 1))
    state = GramStreamState(3).extend(data)
    np.testing.assert_allclose(state.centered_gram(), np.zeros((2, 2)), atol=1e-10)


def test_centered_gram_matches_dense_oracle():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((8, 3))
    state = GramStreamState(3)
    state.extend(data[:5]).extend(data[5:])
    centered = data - data.mean(axis=0)
    np.testing.assert_allclose(state.centered_gram(), centered @ centered.T, atol=1e-10)


def test_centered_gram_row_sums_vanish():
    rng = np.random.default_rng(4)
    state = GramStreamState(5).extend(rng.standard_normal((12, 5)))
    g = state.centered_gram()
    norm = np.linalg.norm(g)
    assert np.max(np.abs(g.sum(axis=1))) < 1e-8 * norm


def test_centered_gram_too_few_rows():
    state = GramStreamState(3).extend(np.ones((1, 3)))
    with pytest.raises(TooFewRows):
        state.centered_gram()


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
    grams = []
    for sizes in ([12], [3, 9], [4, 4, 4], [1] * 12, [5, 1, 6]):
        state = GramStreamState(4)
        start = 0
        for size in sizes:
            state.extend(data[start : start + size])
            start += size
        grams.append(state.uncentered_gram.copy())
    for g in grams[1:]:
        np.testing.assert_allclose(g, grams[0], atol=1e-10)


def test_single_prefix_equals_one_shot():
    rng = np.random.default_rng(7)
    matrix = HiddenStateMatrix(rng.standard_normal((9, 5)))
    series = stream_prefix_eranks(matrix, stride=8)
    direct = spectral_summary(HiddenStateMatrix(matrix.data[:8])).effective_rank
    assert series[0] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("stride", [1, 8, 40])
def test_stream_matches_naive_series(stride):
    rng = np.random.default_rng(8 + stride)
    matrix = HiddenStateMatrix(rng.standard_normal((max(64, stride * 3 + 1), 8)))
    naive = prefix_metric_series(matrix, stride, engine=Engine.FACTOR)
    streamed = stream_prefix_eranks(matrix, stride)
    np.testing.assert_allclose(streamed, naive.prefix_values, rtol=1e-8)


@pytest.mark.parametrize("stride", [2, 8])
def test_stream_matches_naive_series_centered(stride):
    rng = np.random.default_rng(30 + stride)
    matrix = HiddenStateMatrix(rng.standard_normal((65, 6)))
    naive = prefix_metric_series(
        matrix, stride, Centering.ROW_MEAN_CENTERED, Engine.FACTOR
    )
    streamed = stream_prefix_eranks(matrix, stride, Centering.ROW_MEAN_CENTERED)
    np.testing.assert_allclose(streamed, naive.prefix_values, rtol=1e-8)


def test_centered_stream_stride_one_starts_at_two_rows():
    # a one-row prefix cannot be centered, so both engines start at t=2
    matrix = HiddenStateMatrix(np.random.default_rng(9).standard_normal((5, 3)))
    streamed = stream_prefix_eranks(matrix, stride=1, centering=Centering.ROW_MEAN_CENTERED)
    factor = prefix_metric_series(matrix, 1, Centering.ROW_MEAN_CENTERED, Engine.FACTOR)
    assert factor.eval_steps == (2, 3, 4)
    np.testing.assert_allclose(streamed, factor.prefix_values, rtol=1e-8)
