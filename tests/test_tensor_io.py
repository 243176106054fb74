import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import (
    GaussianIID,
    HiddenStateMatrix,
    LowRank,
    MatrixKind,
    OrthogonalRows,
    generate_synthetic,
    read_matrix,
    write_matrix,
)
from rankdyn.errors import (
    BadMagic,
    DimensionMismatch,
    FormatError,
    InfeasibleSpec,
    NonFiniteValue,
    TruncatedPayload,
    UnsupportedVersion,
)
from rankdyn.tensor_io import HEADER_SIZE


def test_round_trip_identity(tmp_path):
    m = HiddenStateMatrix(np.arange(1.0, 7.0).reshape(3, 2))
    path = tmp_path / "m.hsmx"
    write_matrix(m, path)
    back = read_matrix(path)
    assert back.kind is MatrixKind.RESPONSE
    assert back.data.tobytes() == m.data.tobytes()


def test_round_trip_dataset_kind(tmp_path):
    m = HiddenStateMatrix(np.ones((2, 3)), MatrixKind.DATASET)
    path = tmp_path / "m.hsmx"
    write_matrix(m, path)
    assert read_matrix(path).kind is MatrixKind.DATASET


def test_f32_payload_widened(tmp_path):
    data = np.array([[1.5, 2.25], [3.0, -0.5]])  # exactly representable in f32
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(data), path, dtype="f32")
    back = read_matrix(path)
    assert back.data.dtype == np.float64
    np.testing.assert_array_equal(back.data, data)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((2, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(BadMagic) as exc:
        read_matrix(path)
    assert exc.value.offset == 0


def test_unsupported_version(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((2, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(raw)
    with pytest.raises(UnsupportedVersion):
        read_matrix(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((4, 4))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: HEADER_SIZE + 15 * 8])  # 15 of 16 scalars
    with pytest.raises(TruncatedPayload):
        read_matrix(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((4, 4))), path, dtype="f32")
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError) as exc:
        read_matrix(path)
    assert exc.value.offset == HEADER_SIZE + 16 * 4


def test_nonzero_reserved_field_rejected(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((2, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[11] = 1
    path.write_bytes(raw)
    with pytest.raises(FormatError) as exc:
        read_matrix(path)
    assert exc.value.offset == 10


@pytest.mark.parametrize(
    "rows, cols, offset", [(0, 8, 12), (8, 0, 20), (0, 0, 12)], ids=["rows-0", "cols-0", "0x0"]
)
def test_empty_matrix_header_rejected(tmp_path, rows, cols, offset):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((8, 8))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<QQ", raw, 12, rows, cols)  # the payload is left as it was
    path.write_bytes(raw)
    with pytest.raises(FormatError) as exc:
        read_matrix(path)
    assert type(exc.value) is FormatError
    assert exc.value.offset == offset


def test_non_finite_payload(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((2, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 8 : HEADER_SIZE + 16] = np.float64("nan").tobytes()
    path.write_bytes(raw)
    with pytest.raises(NonFiniteValue) as exc:
        read_matrix(path)
    assert exc.value.offset == HEADER_SIZE + 8


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = HiddenStateMatrix(rng.standard_normal((rows, cols)))
    path = tmp_path_factory.mktemp("rt") / "m.hsmx"
    write_matrix(m, path)
    assert read_matrix(path).data.tobytes() == m.data.tobytes()


def test_matrix_invariants():
    with pytest.raises(DimensionMismatch):
        HiddenStateMatrix(np.ones(3))
    with pytest.raises(DimensionMismatch):
        HiddenStateMatrix(np.ones((0, 3)))
    with pytest.raises(NonFiniteValue):
        HiddenStateMatrix(np.array([[1.0, np.inf]]))


def test_orthogonal_rows_generator():
    m = generate_synthetic(OrthogonalRows(4, 8, row_norm=1.0), seed=3)
    gram = m.data @ m.data.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    scaled = generate_synthetic(OrthogonalRows(4, 8, row_norm=0.25), seed=3)
    np.testing.assert_allclose(
        (scaled.data**2).sum(axis=1), np.full(4, 0.25), atol=1e-12
    )


def test_low_rank_generator_rank():
    m = generate_synthetic(LowRank(10, 6, 2), seed=11)
    # SVD oracle: count singular values above a relative threshold
    sigma = np.linalg.svd(m.data, compute_uv=False)
    assert int((sigma > 1e-10 * sigma[0]).sum()) == 2


def test_generators_deterministic():
    for spec in (OrthogonalRows(4, 8), GaussianIID(6, 3), LowRank(5, 5, 2)):
        a = generate_synthetic(spec, seed=99)
        b = generate_synthetic(spec, seed=99)
        assert a.data.tobytes() == b.data.tobytes()


def test_infeasible_specs():
    with pytest.raises(InfeasibleSpec):
        generate_synthetic(OrthogonalRows(9, 8), seed=0)
    with pytest.raises(InfeasibleSpec):
        generate_synthetic(LowRank(4, 3, 4), seed=0)


@pytest.mark.parametrize(
    "spec",
    [OrthogonalRows(0, 8), OrthogonalRows(2, 8, row_norm=0.0), GaussianIID(0, 4),
     GaussianIID(4, 4, sigma=0.0), LowRank(4, 3, 0), "mystery:x=1"],
    ids=["no-rows", "zero-norm", "no-gaussian-rows", "zero-sigma", "rank-0", "unknown"],
)
def test_infeasible_spec_parameters(spec):
    with pytest.raises(InfeasibleSpec):
        generate_synthetic(spec, seed=0)


def test_gaussian_sigma_scales_the_draw():
    unit = generate_synthetic(GaussianIID(10, 4), seed=5)  # sigma defaults to 1
    np.testing.assert_array_equal(generate_synthetic(GaussianIID(10, 4, 2.0), seed=5).data,
                                  2.0 * unit.data)


def test_generated_file_bytes_depend_only_on_seed(tmp_path):
    paths = [tmp_path / f"{name}.hsmx" for name in ("a", "b", "c")]
    for path, seed in zip(paths, (1, 1, 2)):
        write_matrix(generate_synthetic(OrthogonalRows(16, 64), seed=seed), path)
    a, b, c = (path.read_bytes() for path in paths)
    assert a == b and a != c
    assert read_matrix(paths[0]).data.shape == (16, 64)
