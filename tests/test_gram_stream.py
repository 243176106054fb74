import tracemalloc

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
from rankdyn import lapack
from rankdyn.dynamics import eval_steps, prefix_eranks
from rankdyn.errors import DegenerateMatrix
from rankdyn.gram_stream import EIGENVALUE_CLAMP, GramStreamState
from rankdyn.spectral import shifted, summary_from_singular_values
from rankdyn.verify import FIXTURES, engine_drifts, hard_fixture


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


def test_erank_from_gram_copies_a_c_ordered_gram():
    data = np.random.default_rng(4).standard_normal((6, 9))
    gram = data @ data.T
    before = gram.copy()
    erank_from_gram(gram)
    assert np.array_equal(gram, before)


def test_erank_from_gram_solves_an_f_ordered_gram_in_place():
    # dsyevd overwrites the lower triangle it reads, where np.linalg.eigvalsh
    # would copy each gram into work memory first.
    if lapack.eig_kernel() is None:
        pytest.skip("the loaded BLAS exports no LAPACKE_dsyevd")
    data = np.random.default_rng(4).standard_normal((6, 9))
    gram = np.asfortranarray(data @ data.T)
    before = gram.copy()
    erank_from_gram(gram)
    assert not np.array_equal(np.tril(gram), np.tril(before))


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
    series = prefix_eranks(data, 8, Centering.RAW, Engine.INCREMENTAL_GRAM)
    direct = spectral_summary(HiddenStateMatrix(data[:8])).effective_rank
    assert series[0] == pytest.approx(direct, rel=1e-10)


def test_a_walk_within_d_builds_no_scatter():
    # Ends within D need the head Gram and the buffer, each T x T; the D x D
    # scatter (1.78 T x T here) is built only when an end lies past D.
    rows, dims = 300, 400
    data = np.random.default_rng(8).standard_normal((rows, dims))
    tracemalloc.start()
    try:
        prefix_eranks(data, 40, Centering.RAW, Engine.INCREMENTAL_GRAM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * rows * rows * 8, peak / (rows * rows * 8)


# Each fixture at T < D, at T = D, and at T > D with prefixes on both sides of D.
SHAPES = [(17, 24), (24, 24), (64, 8)]


def assert_gram_matches_oracle(stride, centering):
    for fixture in FIXTURES:
        for rows, dims in SHAPES:
            rows = max(rows, stride * 3 + 1)
            matrix = hard_fixture(fixture, rows, dims, seed=rows + dims + stride)
            drift = engine_drifts(matrix, stride, centering)[Engine.INCREMENTAL_GRAM]
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
    streamed = prefix_eranks(data, 1, Centering.ROW_MEAN_CENTERED, Engine.INCREMENTAL_GRAM)
    factor = prefix_metric_series(
        HiddenStateMatrix(data), 1, Centering.ROW_MEAN_CENTERED, Engine.FACTOR
    )
    assert factor.eval_steps == (2, 3, 4)
    np.testing.assert_allclose(streamed, [*factor.prefix_values, factor.final], rtol=1e-8)


def gram_prefix_eranks_with_temporaries(data, steps, centering):
    """The engine as it was before its in-place solve: a centered copy of each
    prefix's Gram matrix, solved by np.linalg.eigvalsh."""
    data = shifted(data, steps, centering)
    rows, dims = data.shape
    centered = centering is Centering.ROW_MEAN_CENTERED
    ends = [*steps, rows]
    head = data[: max((t for t in ends if t <= dims), default=0)]
    head_gram = head @ head.T
    state = GramStreamState(dims)
    eranks = []
    for t in ends:
        if t <= dims:
            gram = head_gram[:t, :t]
            if centered:
                r = gram.mean(axis=1)
                gram = gram - r[:, None] - r[None, :] + r.mean()
        else:
            state.extend(data[state.t : t])
            gram = state.scatter
            if centered:
                gram = gram - np.outer(state.row_sum, state.row_sum) / t
        eigvals = np.linalg.eigvalsh(gram)
        clamp = EIGENVALUE_CLAMP * max(float(np.trace(gram)), 0.0)
        eigvals = np.where(eigvals > clamp, eigvals, 0.0)
        eranks.append(summary_from_singular_values(np.sqrt(eigvals)).effective_rank)
    return np.array(eranks)


# (T, D, stride, column step): T < D, T = D and T > D, at stride 1 and at
# strides that leave a tail. The last takes every second column of a wider
# fixture, which the walk converts to a C-contiguous copy: it gets that
# copy's ERs.
IN_PLACE_SHAPES = [
    (17, 24, 1, 1), (17, 24, 5, 1), (24, 24, 1, 1), (24, 24, 5, 1), (64, 24, 1, 1),
    (61, 24, 8, 1), (130, 200, 7, 2),
]


@pytest.mark.parametrize("kernel", ["dsyevd", "numpy"])
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("shape", IN_PLACE_SHAPES)
def test_in_place_solve_keeps_the_bits(monkeypatch, kernel, centering, shape):
    rows, dims, stride, step = shape
    steps = eval_steps(rows, stride, centering)
    if kernel == "numpy":  # the fallback of lapack.eigvalsh
        monkeypatch.setattr(lapack, "eig_kernel", lambda: None)
    inputs = [
        hard_fixture(fixture, rows, dims * step, seed=rows + dims + stride).data[:, ::step]
        for fixture in FIXTURES
    ]
    for fixture, data in zip(FIXTURES, inputs):
        want = gram_prefix_eranks_with_temporaries(np.ascontiguousarray(data), steps, centering)
        got = prefix_eranks(data, stride, centering, Engine.INCREMENTAL_GRAM)
        assert (got == want).all(), fixture
