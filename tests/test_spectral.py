import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import (
    Centering,
    HiddenStateMatrix,
    effective_rank,
    spectral_summary,
)
from rankdyn.errors import DegenerateMatrix
from rankdyn.verify import orthogonal_rows


def oracle_summary(data: np.ndarray):
    """Reference spectral summary via LAPACK gesvd, independent of the library path."""
    sigma = scipy.linalg.svd(data, compute_uv=False, lapack_driver="gesvd")
    sigma = sigma[sigma > 1e-12 * sigma[0]]
    p = sigma / sigma.sum()
    entropy = -(p * np.log(p)).sum()
    return math.exp(entropy), len(sigma)


def test_identity_saturates_upper_bound():
    s = spectral_summary(HiddenStateMatrix(np.eye(4)))
    np.testing.assert_allclose(s.singular_values, np.ones(4))
    np.testing.assert_allclose(s.distribution, np.full(4, 0.25))
    assert s.effective_rank == pytest.approx(4.0, abs=1e-12)
    assert s.conventional_rank == 4


def test_rank_one_outer_product():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([3.0, 1.0, 0.0, -1.0, 2.0])
    s = spectral_summary(HiddenStateMatrix(np.outer(u, v)))
    assert s.conventional_rank == 1
    assert s.effective_rank == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_rows_erank_equals_k():
    m = HiddenStateMatrix(orthogonal_rows(16, 64, 5).data * 0.25)  # squared row norms 1/16
    er = effective_rank(m)
    assert abs(er - 16.0) <= 1e-6 * 16.0


def test_matches_independent_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        data = rng.standard_normal((6, 3))
        s = spectral_summary(HiddenStateMatrix(data))
        er, rank = oracle_summary(data)
        assert s.effective_rank == pytest.approx(er, rel=1e-9)
        assert s.conventional_rank == rank


def test_hand_evaluated_diag():
    s = spectral_summary(HiddenStateMatrix(np.diag([3.0, 1.0])))
    np.testing.assert_allclose(s.distribution, [0.75, 0.25])
    expected = math.exp(0.75 * math.log(4 / 3) + 0.25 * math.log(4))
    assert s.effective_rank == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.7548, abs=1e-4)


def test_zero_matrix_degenerate():
    with pytest.raises(DegenerateMatrix):
        effective_rank(HiddenStateMatrix(np.zeros((3, 3))))


def test_row_mean_centering():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((10, 4))
    s = spectral_summary(HiddenStateMatrix(data), Centering.ROW_MEAN_CENTERED)
    centered = data - data.mean(axis=0)
    er, _ = oracle_summary(centered)
    assert s.effective_rank == pytest.approx(er, rel=1e-9)
    # One row centered is the zero matrix.
    with pytest.raises(DegenerateMatrix, match="all singular values vanish"):
        spectral_summary(HiddenStateMatrix(data[:1]), Centering.ROW_MEAN_CENTERED)


def test_exp_entropy_is_effective_rank_exactly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = spectral_summary(HiddenStateMatrix(rng.standard_normal((7, 5))))
        assert s.effective_rank == math.exp(s.entropy)
        assert abs(s.distribution.sum() - 1.0) < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(2, 20),
    cols=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_theorem_bounds_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    s = spectral_summary(HiddenStateMatrix(rng.standard_normal((rows, cols))))
    assert 1.0 <= s.effective_rank <= s.conventional_rank <= min(rows, cols)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 100.0))
def test_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((8, 5))
    base = effective_rank(HiddenStateMatrix(data))
    scaled = effective_rank(HiddenStateMatrix(data * scale))
    assert abs(base - scaled) < 1e-10 * base


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_row_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((9, 6))
    perm = rng.permutation(9)
    a = spectral_summary(HiddenStateMatrix(data))
    b = spectral_summary(HiddenStateMatrix(data[perm]))
    np.testing.assert_allclose(a.singular_values, b.singular_values, rtol=1e-10, atol=1e-12)
    assert a.effective_rank == pytest.approx(b.effective_rank, rel=1e-10)


def test_uniform_spectrum_saturation():
    for k in (2, 5, 9):
        m = orthogonal_rows(k, 12, k)
        assert effective_rank(m) == pytest.approx(k, rel=1e-9)
