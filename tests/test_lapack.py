import ctypes

import numpy as np
import pytest

from rankdyn import lapack
from rankdyn.dynamics import Engine, eval_steps, factor_prefix_eranks
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


def without_kernels(monkeypatch, run):
    """run() on the np.linalg.qr fallback; calling a kernel would raise."""
    with monkeypatch.context() as patch:
        patch.setattr(lapack, "qr_kernels", lambda: None)
        patch.setattr(lapack, "row_factor", None)
        patch.setattr(lapack, "fold_rows", None)
        return run()


@pytest.mark.skipif(lapack.qr_kernels() is None, reason="no LAPACK QR kernels to compare")
@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("shape", SHAPES)
def test_numpy_fallback_agrees_with_kernels(monkeypatch, fixture, centering, shape):
    rows, dims, stride = shape
    matrix = hard_fixture(fixture, rows, dims, seed=rows + dims + stride)
    steps = eval_steps(rows, stride, centering)
    kernel = factor_prefix_eranks(matrix.data, steps, centering)
    fallback = without_kernels(
        monkeypatch, lambda: factor_prefix_eranks(matrix.data, steps, centering)
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
    factor_prefix_eranks(data, eval_steps(rows, stride, centering), centering)
    assert np.array_equal(data, before)

