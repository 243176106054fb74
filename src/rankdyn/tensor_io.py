"""Hidden-state matrix data model and the HSMX file format.

The HSMX trajectory format (little-endian, no padding, no footer)::

    magic   4 bytes  b"HSMX"
    version u32      1
    dtype   u8       0 = f64, 1 = f32
    kind    u8       0 or 1 (a retired response/dataset tag); written as 0
    reserved u16     0
    rows    u64
    cols    u64
    payload rows*cols scalars, row-major

Computation always happens in float64; an f32 payload is widened on load.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    FormatError,
    NonFiniteValue,
    TruncatedPayload,
    UnsupportedVersion,
)

MAGIC = b"HSMX"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBBHQQ")
HEADER_SIZE = _HEADER.size  # 28 bytes


@dataclass(frozen=True)
class HiddenStateMatrix:
    """A T-by-D matrix of hidden states."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"matrix must be at least 1x1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("matrix contains NaN/Inf")
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def write_matrix(matrix: HiddenStateMatrix, path: str | Path, dtype: str = "f64") -> None:
    """Serialize a matrix to the HSMX format. dtype is 'f64', or 'f32' if every
    value fits: none above the f32 range, and no nonzero one that f32 rounds to zero."""
    if dtype not in ("f64", "f32"):
        raise ValueError(f"unsupported dtype {dtype!r}")
    flag = 0 if dtype == "f64" else 1
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flag, 0, 0, matrix.rows, matrix.cols)
    if flag and max(matrix.data.max(), -matrix.data.min()) > np.finfo(np.float32).max:
        raise ValueError("a value is outside the f32 range")
    payload = np.ascontiguousarray(
        matrix.data, dtype=np.float64 if flag == 0 else np.float32
    )
    if flag and np.count_nonzero(payload) < np.count_nonzero(matrix.data):
        raise ValueError("a nonzero value underflows to zero in f32")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _check_header(head: bytes, size: int) -> tuple[int, int, int]:
    """(rows, cols, itemsize) from the header `head` of an HSMX file of `size`
    bytes, or the FormatError of the first check it fails, at its byte offset."""
    if size < HEADER_SIZE:
        raise TruncatedPayload("file shorter than HSMX header", offset=size)
    magic, version, dtype_flag, kind_flag, reserved, rows, cols = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, found {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported HSMX version {version}", offset=4)
    if dtype_flag not in (0, 1):
        raise UnsupportedVersion(f"unknown dtype flag {dtype_flag}", offset=8)
    if kind_flag not in (0, 1):
        raise UnsupportedVersion(f"unknown kind flag {kind_flag}", offset=9)
    if reserved != 0:
        raise FormatError(f"reserved field is {reserved}, expected 0", offset=10)
    if rows == 0 or cols == 0:
        offset = 12 if rows == 0 else 20
        raise FormatError(f"header declares a {rows}x{cols} matrix", offset=offset)
    itemsize = 8 if dtype_flag == 0 else 4
    expected = rows * cols * itemsize
    got = size - HEADER_SIZE
    if got < expected:
        raise TruncatedPayload(
            f"payload holds {got // itemsize} scalars, header declares {rows * cols}",
            offset=size,
        )
    if got > expected:
        raise FormatError(
            f"{got - expected} trailing bytes after the payload",
            offset=HEADER_SIZE + expected,
        )
    return rows, cols, itemsize


def read_header(path: str | Path) -> tuple[int, int]:
    """(rows, cols) of an HSMX file from its header alone, checked as
    read_matrix checks it, the payload size against the file size included."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        size = os.fstat(fh.fileno()).st_size
    return _check_header(head, size)[:2]


def read_matrix(path: str | Path) -> HiddenStateMatrix:
    """Load an HSMX file, widening an f32 payload to f64."""
    raw = Path(path).read_bytes()
    rows, cols, itemsize = _check_header(raw, len(raw))
    flat = np.frombuffer(raw, dtype=f"<f{itemsize}", count=rows * cols, offset=HEADER_SIZE)
    data = flat.astype(np.float64).reshape(rows, cols)
    try:
        return HiddenStateMatrix(data)
    except NonFiniteValue:  # the constructor scans; find the offset only on failure
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise NonFiniteValue("non-finite scalar in payload", HEADER_SIZE + bad * itemsize) from None
