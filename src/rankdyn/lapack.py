"""The OpenBLAS that numpy loaded, reached through ctypes on first use, never at
import: its thread count and kernel set, the LAPACK QR kernels dgeqrt (recursive,
BLAS-3 panels; Elmroth & Gustavson, IBM J. R&D 2000) and dtpqrt (the triangle-plus-rows
QR of TSQR; Demmel et al., SISC 2012), which row_factor and fold_rows run, and
the symmetric eigensolver dsyevd that eigvalsh runs; np.linalg.qr and
np.linalg.eigvalsh where they are absent. Its symbols carry an optional
`scipy_` prefix, and a `64_` suffix that means 64-bit integer arguments.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

COL_MAJOR = 102  # LAPACK_COL_MAJOR
# Block size nb of both kernels, from a sweep of {16, 32, 48, 64} on 4096-row
# panels of 64 to 512 columns and on D=256 updates of 1 and 40 rows.
BLOCK = 32


@functools.cache
def openblas() -> tuple[ctypes.CDLL, str] | None:
    """The first loaded OpenBLAS that exports its thread-count calls, with the
    spelling of its symbols as a format string; None when there is none."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    for path in sorted({ln.split()[-1] for ln in lines if "openblas" in ln and ".so" in ln}):
        lib = ctypes.CDLL(path)
        for spelling in ("{}", "{}64_", "scipy_{}", "scipy_{}64_"):
            if all(hasattr(lib, spelling.format(f"openblas_{op}_num_threads"))
                   for op in ("set", "get")):
                return lib, spelling
    return None


def core_name() -> str | None:
    """The loaded OpenBLAS's kernel set (openblas_get_corename), or None."""
    found = openblas()
    if found is None:
        return None
    lib, spelling = found
    corename = getattr(lib, spelling.format("openblas_get_corename"))
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@contextlib.contextmanager
def single_threaded_blas():
    """Pin the loaded OpenBLAS to one thread, and restore its old count on
    exit. Yields False, pinning nothing, when none is found."""
    found = openblas()
    if found is None:
        yield False
        return
    lib, spelling = found
    setter, getter = (getattr(lib, spelling.format(f"openblas_{op}_num_threads"))
                      for op in ("set", "get"))
    setter.argtypes, setter.restype, getter.restype = [ctypes.c_int], None, ctypes.c_int
    old = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(old)


def _raise_on_info(info: int, kernel, args) -> int:
    if info < 0:
        raise RuntimeError(f"{kernel.__name__} returned info={info}")
    if info > 0:  # only dsyevd reports one: no convergence, as numpy words it
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return info


def _bind(names: tuple[str, ...], argtypes) -> tuple | None:
    """LAPACKE_<name> of the loaded OpenBLAS for each name, typed by
    argtypes(integer, c_order, f_order) and raising on a nonzero info; None
    unless it has them all. The two orders are float64 array types that hold
    each matrix to the memory order the kernel reads."""
    found = openblas()
    if found is None:
        return None
    lib, spelling = found
    try:
        kernels = tuple(getattr(lib, spelling.format(f"LAPACKE_{name}")) for name in names)
    except AttributeError:
        return None
    integer = ctypes.c_int64 if spelling.endswith("64_") else ctypes.c_int
    orders = (np.ctypeslib.ndpointer(np.float64, flags=f"{order},WRITEABLE") for order in "CF")
    for kernel, types in zip(kernels, argtypes(integer, *orders)):
        kernel.argtypes, kernel.restype, kernel.errcheck = types, integer, _raise_on_info
    return kernels


@functools.cache
def qr_kernels() -> tuple | None:
    """LAPACKE_dgeqrt and LAPACKE_dtpqrt, or None."""
    return _bind(("dgeqrt", "dtpqrt"), lambda integer, c_order, f_order: (
        [ctypes.c_int, *[integer] * 3, c_order, integer, c_order, integer],
        [ctypes.c_int, *[integer] * 4, *[f_order, integer] * 2, c_order, integer],
    ))


@functools.cache
def eig_kernel():
    """LAPACKE_dsyevd, or None."""
    found = _bind(("dsyevd",), lambda integer, c_order, f_order: (
        [ctypes.c_int, ctypes.c_char, ctypes.c_char, integer, f_order, integer, c_order],
    ))
    return found and found[0]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix with the lower triangle of
    a, the triangle np.linalg.eigvalsh reads, and with its bits. dsyevd solves
    a in place, so a must be an F-contiguous, writeable float64 matrix, and its
    lower triangle is overwritten; the numpy fallback leaves a as it is."""
    if eig_kernel() is None:
        return np.linalg.eigvalsh(a)
    n = a.shape[0]
    w = np.empty(n)
    eig_kernel()(COL_MAJOR, b"N", b"L", n, a, max(n, 1), w)
    return w


def row_factor(rows: np.ndarray) -> np.ndarray:
    """Lower-triangular m-by-m L with rows = L Q^T, for m-by-D rows, m <= D.
    dgeqrt factors a C-order copy in place as the D-by-m column-major matrix,
    so L is the lower triangle of its leading block."""
    if qr_kernels() is None:
        return np.linalg.qr(rows.T, mode="r").T
    a = np.array(rows, dtype=np.float64, order="C")  # owned: dgeqrt overwrites it
    m, dims = a.shape
    nb = min(BLOCK, m)
    qr_kernels()[0](COL_MAJOR, dims, m, nb, a, dims, np.empty(nb * m), nb)
    return np.tril(a[:, :m])


def fold_rows(r: np.ndarray, chunk: np.ndarray) -> None:
    """R <- the R factor of [R; chunk] in place, in O(b D^2) for b rows. R is
    F-contiguous, D-by-D, upper triangular with a zero lower triangle."""
    if qr_kernels() is None:
        r[:] = np.linalg.qr(np.vstack([r, chunk]), mode="r")
        return
    b = np.array(chunk, dtype=np.float64, order="F")  # owned: dtpqrt overwrites it
    rows, dims = b.shape
    nb = min(BLOCK, dims)
    qr_kernels()[1](COL_MAJOR, rows, dims, 0, nb, r, dims, b, rows, np.empty(nb * dims), nb)
