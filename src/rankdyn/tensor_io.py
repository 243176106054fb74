"""Hidden-state matrix data model and the HSMX file format.

The HSMX trajectory format (little-endian, no padding, no footer)::

    magic   4 bytes  b"HSMX"
    version u32      1
    dtype   u8       the position of its name in DTYPES: 0 = f64, 1 = f32
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
DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}  # little-endian on every host


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
        if not (np.isfinite(arr.max()) and np.isfinite(arr.min())):  # NaN reaches both
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
    if dtype not in DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}")
    flag = list(DTYPES).index(dtype)
    if max(matrix.data.max(), -matrix.data.min()) > np.finfo(DTYPES[dtype]).max:
        raise ValueError(f"a value is outside the {dtype} range")
    payload = np.ascontiguousarray(matrix.data, dtype=DTYPES[dtype])
    if np.count_nonzero(payload) < np.count_nonzero(matrix.data):
        raise ValueError(f"a nonzero value underflows to zero in {dtype}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, flag, 0, 0, matrix.rows, matrix.cols))
        fh.write(payload.data)


def _header(fh) -> tuple[int, int, np.dtype]:
    """(rows, cols, payload dtype) from the open HSMX file `fh`'s header and size,
    or the FormatError of the first check they fail, at its byte offset."""
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise TruncatedPayload("file shorter than HSMX header", offset=len(head))
    magic, version, dtype_flag, kind_flag, reserved, rows, cols = _HEADER.unpack(head)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, found {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported HSMX version {version}", offset=4)
    if dtype_flag >= len(DTYPES):
        raise UnsupportedVersion(f"unknown dtype flag {dtype_flag}", offset=8)
    if kind_flag not in (0, 1):
        raise UnsupportedVersion(f"unknown kind flag {kind_flag}", offset=9)
    if reserved != 0:
        raise FormatError(f"reserved field is {reserved}, expected 0", offset=10)
    if rows == 0 or cols == 0:
        offset = 12 if rows == 0 else 20
        raise FormatError(f"header declares a {rows}x{cols} matrix", offset=offset)
    dtype = list(DTYPES.values())[dtype_flag]
    expected = rows * cols * dtype.itemsize
    got = os.fstat(fh.fileno()).st_size - HEADER_SIZE
    if got < expected:
        raise TruncatedPayload(
            f"payload holds {got // dtype.itemsize} scalars, header declares {rows * cols}",
            offset=HEADER_SIZE + got,
        )
    if got > expected:
        raise FormatError(
            f"{got - expected} trailing bytes after the payload",
            offset=HEADER_SIZE + expected,
        )
    return rows, cols, dtype


def read_header(path: str | Path) -> tuple[int, int]:
    """(rows, cols) of an HSMX file, its header and size checked as read_matrix checks them."""
    with open(path, "rb") as fh:
        return _header(fh)[:2]


def read_matrix(path: str | Path) -> HiddenStateMatrix:
    """Load an HSMX file into one float64 array, widening an f32 payload."""
    with open(path, "rb") as fh:
        rows, cols, dtype = _header(fh)
        flat = np.fromfile(fh, dtype=dtype, count=rows * cols)
        if flat.size < rows * cols:  # the file shrank after _header read its size
            short = f"payload holds {flat.size} scalars, header declares {rows * cols}"
            raise TruncatedPayload(short, offset=fh.tell())
    data = flat.astype(np.float64, copy=False).reshape(rows, cols)
    try:
        return HiddenStateMatrix(data)
    except NonFiniteValue:  # the constructor scans; find the offset only on failure
        at = HEADER_SIZE + int(np.flatnonzero(~np.isfinite(flat))[0]) * flat.itemsize
        raise NonFiniteValue("non-finite scalar in payload", at) from None
