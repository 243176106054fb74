import ctypes

import numpy as np
import pytest

from rankdyn import lapack
from rankdyn.dynamics import Engine, eval_steps, prefix_eranks
from rankdyn.spectral import Centering
from rankdyn.verify import FIXTURES, engine_drift, hard_fixture

# (T, D, stride): T < D, T = D and T > D, at stride 1 and at strides that
# leave a tail, so both kernels and the numpy fallback see every branch.
SHAPES = [(17, 24, 1), (17, 24, 4), (24, 24, 1), (24, 24, 5), (64, 24, 1), (61, 24, 8)]


def openblas_build() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not openblas_build(), reason="numpy is not built on OpenBLAS")
def test_kernels_resolve_on_loaded_openblas():
    assert lapack.openblas() is not None
    assert lapack.qr_kernels() is not None


@pytest.mark.skipif(lapack.qr_kernels() is None, reason="no LAPACK QR kernels")
def test_kernel_misuse_raises():
    geqrt = lapack.qr_kernels()[0]
    with pytest.raises(RuntimeError, match="info=-4"):  # block size 0
        geqrt(lapack.COL_MAJOR, 4, 2, 0, np.zeros((2, 4)), 4, np.zeros(2), 1)
    with pytest.raises(ctypes.ArgumentError):  # R in C order
        lapack.fold_rows(np.zeros((4, 4)), np.ones((1, 4)))


def without_kernels(monkeypatch, run, binder="qr_kernels"):
    """run() on the numpy fallback: of row_factor and fold_rows by default, of
    eigvalsh with binder="eig_kernel"."""
    with monkeypatch.context() as patch:
        patch.setattr(lapack, binder, lambda: None)
        return run()


@pytest.mark.skipif(lapack.qr_kernels() is None, reason="no LAPACK QR kernels to compare")
@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("shape", SHAPES)
def test_numpy_fallback_agrees_with_kernels(monkeypatch, fixture, centering, shape):
    rows, dims, stride = shape
    matrix = hard_fixture(fixture, rows, dims, seed=rows + dims + stride)
    steps = eval_steps(rows, stride, centering)
    kernel = prefix_eranks(matrix.data, steps, centering, Engine.FACTOR)
    fallback = without_kernels(
        monkeypatch, lambda: prefix_eranks(matrix.data, steps, centering, Engine.FACTOR)
    )
    np.testing.assert_allclose(kernel, fallback, rtol=1e-12, atol=0)
    drift = engine_drift(matrix, stride, centering, Engine.FACTOR)
    fallback_drift = without_kernels(
        monkeypatch, lambda: engine_drift(matrix, stride, centering, Engine.FACTOR)
    )
    assert max(drift, fallback_drift) <= 1e-12


@pytest.mark.parametrize("stride", [1, 40])
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("rows,dims", [(130, 24), (50, 64)])
def test_factor_engine_leaves_data_unchanged(stride, centering, rows, dims):
    data = hard_fixture("gaussian", rows, dims, seed=stride).data
    before = data.copy()
    prefix_eranks(data, eval_steps(rows, stride, centering), centering, Engine.FACTOR)
    assert np.array_equal(data, before)



@pytest.mark.skipif(lapack.eig_kernel() is None, reason="no LAPACK eigensolver")
def test_eigvalsh_reads_numpys_triangle_bit_for_bit(monkeypatch):
    # Centered as the Gram engine centers, the two triangles round differently.
    x = hard_fixture("power-law", 40, 64, seed=3).data
    g = x @ x.T
    r = g.mean(axis=1)
    a = g - r[:, None] - r[None, :] + r.mean()
    assert not np.array_equal(a, a.T)
    want = np.linalg.eigvalsh(a)
    assert not np.array_equal(want, np.linalg.eigvalsh(a, UPLO="U"))
    assert np.array_equal(lapack.eigvalsh(np.asfortranarray(a)), want)
    fallback = without_kernels(
        monkeypatch, lambda: lapack.eigvalsh(np.asfortranarray(a)), binder="eig_kernel"
    )
    assert np.array_equal(fallback, want)
    with pytest.raises(ctypes.ArgumentError):  # in C order dsyevd would read the other triangle
        lapack.eigvalsh(a)
