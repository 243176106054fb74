import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import HiddenStateMatrix, read_matrix, tensor_io, write_matrix
from rankdyn.errors import (
    BadMagic,
    DimensionMismatch,
    FormatError,
    NonFiniteValue,
    TruncatedPayload,
    UnsupportedVersion,
)
from rankdyn.tensor_io import DTYPES, HEADER_SIZE, read_header
from rankdyn.verify import FIXTURES, hard_fixture, orthogonal_rows


def test_round_trip_identity(tmp_path):
    m = HiddenStateMatrix(np.arange(1.0, 7.0).reshape(3, 2))
    path = tmp_path / "m.hsmx"
    write_matrix(m, path)
    back = read_matrix(path)
    assert back.data.tobytes() == m.data.tobytes()


def test_a_kind_1_file_still_reads(tmp_path):
    # Byte 9 once tagged a response (0) or a dataset (1) matrix. Files are
    # written with 0, both still read, and any other value is rejected there.
    m = HiddenStateMatrix(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "m.hsmx"
    write_matrix(m, path)
    raw = bytearray(path.read_bytes())
    assert raw[9] == 0
    raw[9] = 1
    path.write_bytes(raw)
    assert read_matrix(path).data.tobytes() == m.data.tobytes()
    raw[9] = 2
    path.write_bytes(raw)
    with pytest.raises(UnsupportedVersion) as exc:
        read_matrix(path)
    assert exc.value.offset == 9


def test_f32_payload_widened(tmp_path):
    data = np.array([[1.5, 2.25], [3.0, -0.5]])  # exactly representable in f32
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(data), path, dtype="f32")
    back = read_matrix(path)
    assert back.data.dtype == np.float64
    np.testing.assert_array_equal(back.data, data)


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_f32_write_rejects_a_value_outside_its_range(tmp_path, value):
    path = tmp_path / "m.hsmx"
    with pytest.raises(ValueError, match="outside the f32 range"):
        write_matrix(HiddenStateMatrix(np.array([[1.0, value]])), path, dtype="f32")
    assert not path.exists()


# f32 rounds |x| <= 2^-150 to zero and |x| just above it up to its smallest
# subnormal, 2^-149.
@pytest.mark.parametrize("value", [1e-50, -1e-50, 2.0**-150, -(2.0**-150)])
def test_f32_write_rejects_a_nonzero_value_that_underflows(tmp_path, value):
    path = tmp_path / "m.hsmx"
    with pytest.raises(ValueError, match="underflows to zero in f32"):
        write_matrix(HiddenStateMatrix(np.array([[1.0, value]])), path, dtype="f32")
    assert not path.exists()
    with pytest.raises(ValueError, match="underflows to zero in f32"):
        write_matrix(HiddenStateMatrix(hard_fixture("gaussian", 4, 3, 0).data * 1e-50), path, "f32")
    assert not path.exists()


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 2.0**-149, -(2.0**-149), np.nextafter(2.0**-150, 1.0), 1e-40, 2.0**-126],
)
def test_f32_write_keeps_every_value_f32_represents(tmp_path, value):
    data = np.array([[1.0, value]])
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(data), path, dtype="f32")
    back = read_matrix(path).data
    np.testing.assert_array_equal(back, data.astype(np.float32).astype(np.float64))
    assert np.signbit(back).tolist() == np.signbit(data).tolist()


def test_write_rejects_an_unknown_dtype(tmp_path):
    path = tmp_path / "m.hsmx"
    with pytest.raises(ValueError, match="unsupported dtype 'f16'"):
        write_matrix(HiddenStateMatrix(np.ones((2, 2))), path, dtype="f16")
    assert not path.exists()


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
    with pytest.raises(UnsupportedVersion) as exc:
        read_matrix(path)
    assert exc.value.offset == 4
    raw[4] = 1
    raw[8] = 7  # the dtype flag
    path.write_bytes(raw)
    with pytest.raises(UnsupportedVersion) as exc:
        read_matrix(path)
    assert exc.value.offset == 8


def test_truncated_payload(tmp_path):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((4, 4))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: HEADER_SIZE + 15 * 8])  # 15 of 16 scalars
    with pytest.raises(TruncatedPayload):
        read_matrix(path)
    path.write_bytes(raw[:20])  # inside the header
    with pytest.raises(TruncatedPayload) as exc:
        read_matrix(path)
    assert exc.value.offset == 20


def test_payload_cut_short_after_its_size_was_read(tmp_path, monkeypatch):
    # os.fstat reports the declared size, as it would had the file been cut after it.
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((4, 4))), path)
    declared = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedPayload) as honest:
        read_matrix(path)
    with monkeypatch.context() as patch, pytest.raises(TruncatedPayload) as cut:
        patch.setattr(tensor_io.os, "fstat", lambda fd: SimpleNamespace(st_size=declared))
        read_matrix(path)
    assert cut.value.offset == honest.value.offset == declared - 1
    assert str(cut.value) == str(honest.value)


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


# A header field overwritten with bytes that fail its check, at its offset.
HEADER_FAULTS = {"magic": (0, b"XXXX"), "version": (4, b"\x09"), "dtype": (8, b"\x07"),
                 "kind": (9, b"\x02"), "reserved": (11, b"\x01"), "rows-0": (12, bytes(8)),
                 "cols-0": (20, bytes(8)), "huge-rows": (12, (2**28).to_bytes(8, "little"))}


def corrupt(raw: bytearray, fault: str) -> bytes:
    """An f64 8x8 HSMX file's bytes with one fault."""
    if fault == "short-header":
        return bytes(raw[:20])
    if fault == "trailing":
        return bytes(raw + b"\0")
    if fault == "truncated":
        return bytes(raw[:-1])
    at, value = HEADER_FAULTS[fault]
    raw[at : at + len(value)] = value
    return bytes(raw)  # huge-rows: 2^28 rows claimed by a 540-byte file


@pytest.mark.parametrize("fault", ["short-header", "trailing", "truncated", *HEADER_FAULTS])
def test_read_header_checks_as_read_matrix_does(tmp_path, fault):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((8, 8))), path)
    assert read_header(path) == (8, 8)
    path.write_bytes(corrupt(bytearray(path.read_bytes()), fault))
    with pytest.raises(FormatError) as whole:
        read_matrix(path)
    with pytest.raises(FormatError) as header:
        read_header(path)
    assert (type(header.value), str(header.value)) == (type(whole.value), str(whole.value))


# NaN and +inf reach a payload's max, NaN and -inf its min.
@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("at", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_payload(tmp_path, value, at, dtype):
    path = tmp_path / "m.hsmx"
    write_matrix(HiddenStateMatrix(np.ones((2, 3))), path, dtype)
    raw = bytearray(path.read_bytes())
    scalar = np.array(value, dtype=DTYPES[dtype]).tobytes()
    offset = HEADER_SIZE if at == "first" else len(raw) - len(scalar)
    raw[offset : offset + len(scalar)] = scalar
    path.write_bytes(raw)
    with pytest.raises(NonFiniteValue) as exc:
        read_matrix(path)
    assert exc.value.offset == offset


def test_read_matrix_holds_one_float64_copy(tmp_path):
    # An f64 payload is read into the array read_matrix returns; an f32 payload
    # is read (half that array's size) and then widened into it.
    data = np.random.default_rng(0).standard_normal((1024, 1024))
    for dtype, rows, bound in [("f64", 512, 1.1), ("f32", 1024, 1.55)]:
        path = tmp_path / f"{dtype}.hsmx"
        write_matrix(HiddenStateMatrix(data[:rows]), path, dtype)  # a 4 MiB payload
        tracemalloc.start()
        try:
            matrix = read_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * matrix.data.nbytes, (dtype, peak / matrix.data.nbytes)


def test_in_memory_non_finite_names_no_offset():
    with pytest.raises(NonFiniteValue) as exc:
        HiddenStateMatrix([[1.0, np.nan]])
    assert str(exc.value) == "matrix contains NaN/Inf"
    assert exc.value.offset is None


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
    m = orthogonal_rows(4, 8, seed=3)
    np.testing.assert_allclose(m.data @ m.data.T, np.eye(4), atol=1e-12)


def test_generators_deterministic():
    draws = [(orthogonal_rows(4, 8, 99), orthogonal_rows(4, 8, 99))]
    draws += [(hard_fixture(f, 6, 3, 99), hard_fixture(f, 6, 3, 99)) for f in FIXTURES]
    for a, b in draws:
        assert a.data.tobytes() == b.data.tobytes()


def test_generated_file_bytes_depend_only_on_seed(tmp_path):
    paths = [tmp_path / f"{name}.hsmx" for name in ("a", "b", "c")]
    for path, seed in zip(paths, (1, 1, 2)):
        write_matrix(orthogonal_rows(16, 64, seed), path)
    a, b, c = (path.read_bytes() for path in paths)
    assert a == b and a != c
    assert read_matrix(paths[0]).data.shape == (16, 64)
