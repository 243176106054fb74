import csv
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankdyn import lapack, write_matrix
from rankdyn.dynamics import Engine, eval_steps, prefix_eranks
from rankdyn.spectral import Centering
from rankdyn.verify import FIXTURES, engine_drifts, hard_fixture

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


@pytest.mark.skipif(lapack.openblas() is None, reason="no OpenBLAS to pin")
def test_single_threaded_blas_restores_the_callers_count():
    setter, getter = (lapack.symbol(f"openblas_{op}_num_threads") for op in ("set", "get"))
    old = getter()
    try:
        setter(2)
        with pytest.raises(KeyError), lapack.single_threaded_blas() as pinned:
            assert pinned and getter() == 1
            raise KeyError
        assert getter() == 2
    finally:
        setter(old)


def test_no_openblas_pins_nothing_and_binds_nothing(monkeypatch):
    monkeypatch.setattr(lapack, "openblas", lambda: None)
    with lapack.single_threaded_blas() as pinned:
        assert pinned is False
    assert lapack.core_name() is None
    assert lapack._bind(("dgeqrt",), lambda *types: ([],)) is None


@pytest.mark.skipif(lapack.qr_kernels() is None, reason="no LAPACK QR kernels")
def test_bind_needs_every_kernel():
    assert lapack._bind(("dgeqrt", "no_such_kernel"), lambda *types: ([], [])) is None


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
    drift = engine_drifts(matrix, stride, centering)[Engine.FACTOR]
    fallback_drift = without_kernels(
        monkeypatch, lambda: engine_drifts(matrix, stride, centering)[Engine.FACTOR]
    )
    assert max(drift, fallback_drift) <= 1e-12


@pytest.mark.parametrize("engine", Engine)
@pytest.mark.parametrize("stride", [1, 40])
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("rows,dims,step", [(130, 24, 1), (50, 64, 1), (50, 64, 2)])
def test_engines_leave_data_unchanged(engine, stride, centering, rows, dims, step):
    # step 2 takes every second column of a wider fixture; in raw mode the walk
    # hands the engine the caller's own array, strided as it is.
    data = hard_fixture("gaussian", rows, dims * step, seed=stride).data[:, ::step]
    before = data.copy()
    prefix_eranks(data, eval_steps(rows, stride, centering), centering, engine)
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


def dynamic_arch_openblas() -> bool:
    """Whether numpy runs an x86-64 OpenBLAS built to pick its kernel set at
    load time, which OPENBLAS_CORETYPE can then force."""
    if sys.platform != "linux" or platform.machine() != "x86_64" or lapack.openblas() is None:
        return False
    config = lapack.symbol("openblas_get_config")
    config.restype = ctypes.c_char_p
    return b"DYNAMIC_ARCH" in config()


def cpu_flags() -> set[str]:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


# OPENBLAS_CORETYPE: (the set that loads, the /proc/cpuinfo flags it needs).
KERNEL_SETS = {
    "SkylakeX": ("SkylakeX", {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}),
    "Haswell": ("Haswell", {"avx2", "fma"}),
    "Sandybridge": ("Sandybridge", {"avx"}),
    "Nehalem": ("Nehalem", {"sse4_2"}),
    "Prescott": ("Katmai", {"pni"}),
}
# The metrics command on both engines and centerings: argv is the batch glob and
# the output directory.
METRICS_RUNS = """
import sys
from rankdyn.cli import main
for engine in ("naive", "incremental"):
    for center in ("raw", "rowmean"):
        out = f"{sys.argv[2]}/{engine}-{center}"
        main(["metrics", "--in", sys.argv[1], "--out", out + ".csv", "--stats", out + ".json",
              "--stride", "16", "--engine", engine, "--center", center])
"""


def metrics_under(coretype, batch, out):
    """{(engine, center): (CSV rows by id, --stats report)} of METRICS_RUNS in a
    child process under OPENBLAS_CORETYPE=coretype, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype  # read when numpy loads OpenBLAS
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", METRICS_RUNS, str(batch), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    runs = {}
    for engine in ("naive", "incremental"):
        for center in ("raw", "rowmean"):
            rows = list(csv.reader((out / f"{engine}-{center}.csv").read_text().splitlines()))
            report = json.loads((out / f"{engine}-{center}.json").read_text())
            runs[engine, center] = ({row[0]: row for row in rows[1:]}, report)
    return runs


@pytest.mark.skipif(not dynamic_arch_openblas(), reason="no x86-64 DYNAMIC_ARCH OpenBLAS")
def test_bytes_hold_per_kernel_set_and_bounds_across_sets(tmp_path):
    # One kernel set gives the same bytes; another rounds differently, within
    # 1e-13 of the row's er on the naive engine, and within the incremental
    # engine's 1e-8 bound on the fixtures whose prefixes all have cond < 1e6.
    for fixture in ("gaussian", "low-rank", "power-law", "offset", "massive"):
        write_matrix(hard_fixture(fixture, 200, 48, seed=1), tmp_path / f"{fixture}.hsmx")
    batch = tmp_path / "*.hsmx"
    default = metrics_under(None, batch, tmp_path / "default")
    flags = cpu_flags()
    sets = [name for name, (_, needs) in KERNEL_SETS.items() if needs <= flags]
    assert sets
    for coretype in sets:
        runs = metrics_under(coretype, batch, tmp_path / coretype)
        core = KERNEL_SETS[coretype][0]
        for (engine, center), (rows, report) in runs.items():
            want, want_report = default[engine, center]
            assert report["blas_core"] == core
            if want_report["blas_core"] == core:
                assert rows == want
            bound = {"naive": 1e-13, "incremental": 1e-8}[engine]
            for ident, row in rows.items():
                assert row[:3] + row[6:] == want[ident][:3] + want[ident][6:]
                held = engine == "naive" or ident in ("gaussian", "low-rank", "massive")
                if held and not row[6]:
                    drift = np.abs(np.array(row[3:6], float) - np.array(want[ident][3:6], float))
                    assert drift.max() <= bound * float(want[ident][3]), (coretype, engine, ident)
