"""Prefix-wise metric series and its first/second-order temporal differences.

For a trajectory of T tokens and stride s, the metric is evaluated on the
growing prefixes at steps {s, 2s, ..., Ks}, K = floor((T-1)/s). The
instantaneous difference compares each value against the running mean of all
earlier values:

    delta_j = m_j - mean(m_1 .. m_{j-1})          (j >= 2)

The velocity is the mean of the deltas (defined iff K >= 2) and the
acceleration is the mean of consecutive delta differences (defined iff
K >= 3). That mean telescopes to (delta_K - delta_2) / (K - 2), so the
acceleration reads m_1, m_2, m_K and only the mean of the values between.
For the exactly linear series m_n = n these reduce to (K+2)/4 and 1/2
respectively.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import gram_stream
from .errors import TrajectoryTooShort
from .lapack import fold_rows, row_factor
from .spectral import Centering, center, shifted, summary_from_singular_values
from .spectral import effective_rank  # noqa: F401  still hooked by this name in perfbench/
from .tensor_io import HiddenStateMatrix

DEFAULT_STRIDE = 40


class Engine(enum.Enum):
    FACTOR = "naive"
    INCREMENTAL_GRAM = "incremental"
    NAIVE_SVD = FACTOR  # former name of FACTOR, still spelled so in perfbench/


@dataclass(frozen=True)
class MetricSeries:
    eval_steps: tuple[int, ...]
    prefix_values: np.ndarray
    velocity: float | None  # defined iff K >= 2
    acceleration: float | None  # defined iff K >= 3
    final: float  # the metric on all T rows, tail beyond the last step included


def require_stride(stride: int) -> None:
    if stride < 1:
        raise ValueError("stride must be >= 1")


def eval_steps(rows: int, stride: int, centering: Centering = Centering.RAW) -> list[int]:
    """The stride multiples below `rows`. A centered prefix needs two rows, so
    centered mode starts at the first multiple >= 2 (t=2 at stride 1)."""
    require_stride(stride)
    first = max(stride, 2) if centering is Centering.ROW_MEAN_CENTERED else stride
    steps = list(range(first, rows, stride))
    if not steps:
        raise TrajectoryTooShort(
            f"trajectory of {rows} rows yields no eval step at stride {stride}"
        )
    return steps


def differences(values: np.ndarray) -> tuple[float | None, float | None]:
    """(velocity, acceleration) of a prefix series, each None where undefined."""
    values = np.asarray(values, dtype=np.float64)
    k = values.size
    if k < 2:
        return None, None
    deltas = values[1:] - np.cumsum(values[:-1]) / np.arange(1, k)
    acceleration = float(np.diff(deltas).mean()) if k >= 3 else None
    return float(deltas.mean()), acceleration


def factor_eranks(data: np.ndarray, ends: list[int], centering: Centering,
                  first: int, stop: int) -> Iterator[float]:
    """The effective rank of each prefix data[:t], t in ends[first:stop],
    centered in centered mode, from the SVD of a small triangular factor.

    Prefixes with t <= D: one QR of data[:m].T gives a lower-triangular L
    with data[:m] = L Q^T, so data[:t] has the singular values of L[:t, :t].
    Row-mean centering commutes with Q^T, so centered mode centers that block.

    Longer prefixes stream a D-by-D R factor over the rows between consecutive
    ends, R <- qr([R; chunk]) as in TSQR (Demmel et al., SISC 2012). Centered
    mode merges each chunk about its own mean plus one mean-shift row weighted
    sqrt(n*b/(n+b)), the pairwise update of Chan, Golub & LeVeque (1979). No
    Gram matrix is formed and no raw moments are subtracted, so the values
    keep the accuracy of an SVD of each prefix.

    Both QRs are `lapack.row_factor` and `lapack.fold_rows`, the latter on an
    R that starts at zero. Every chunk to the last end solved is folded, solved
    or not.
    """
    rows, dims = data.shape
    if ends[first] <= dims:
        lower = row_factor(data[: min(rows, dims)])
    if rows > dims:
        factor = np.zeros((dims, dims), order="F")
    count, mean = 0, np.zeros(dims)
    for index, t in enumerate(ends[:stop]):
        if t > dims:
            chunk = data[count:t]
            if centering is Centering.ROW_MEAN_CENTERED:
                b = t - count
                chunk_mean = chunk.mean(axis=0)
                shift = math.sqrt(count * b / t) * (chunk_mean - mean)
                chunk = np.vstack([chunk - chunk_mean, shift])
                mean = mean + (chunk_mean - mean) * (b / t)
            fold_rows(factor, chunk)
            count = t
        if index >= first:
            block = center(lower[:t, :t], centering) if t <= dims else factor
            sigma = np.linalg.svd(block, compute_uv=False)
            yield summary_from_singular_values(sigma).effective_rank


def prefix_eranks(
    data: np.ndarray, stride: int, centering: Centering, engine: Engine,
    solve: slice = slice(None),
) -> np.ndarray:
    """Effective rank of each prefix data[:t], t in the ends: every eval step at
    this stride, then T for the final ER. Only ends[solve], a range of step 1, are
    solved by the engine, which takes in every row up to the last of them but
    builds no block before the first. The rows are converted once to a C-contiguous
    float64 array (f32 rows give their widening's ERs), then `spectral.shifted`."""
    steps = eval_steps(data.shape[0], stride, centering)
    ends = [*steps, data.shape[0]]
    start, stop, step = solve.indices(len(ends))
    if step != 1:
        raise ValueError(f"solve must be a range of step 1, not {step}")
    if start >= stop:
        return np.zeros(0)
    walk = gram_stream.gram_eranks if engine is Engine.INCREMENTAL_GRAM else factor_eranks
    data = shifted(np.ascontiguousarray(data, dtype=np.float64), steps, centering)
    return np.array(list(walk(data, ends, centering, start, stop)))


def walk_flops(rows: int, dims: int, stride: int,
               centering: Centering) -> tuple[float, np.ndarray, np.ndarray]:
    """Modeled flops of the factor engine's LAPACK kernels on a rows-by-dims
    trajectory walked at this stride: (head, build, solve). head is the row factor
    of m rows, 2 D m^2. Per end t, build is the fold, 2 b D^2, of the b rows it
    adds past D, and solve is the SVD, 8/3 n^3, of its n = min(t, D) block. Each
    Gram engine kernel costs half (its head at T > D aside): both get one plan."""
    ends = np.array([*eval_steps(rows, stride, centering), rows], dtype=np.float64)
    head = 2 * dims * min(rows, dims) ** 2 if ends[0] <= dims else 0.0
    folded = np.where(ends > dims, ends, 0.0)  # the rows folded in after each end
    build = 2 * np.diff(folded, prepend=0.0) * dims**2
    solve = 8 / 3 * np.minimum(ends, dims) ** 3
    return head, build, solve


def prefix_metric_series(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> MetricSeries:
    """Effective rank on every stride-aligned prefix, its differences, and the
    effective rank of all T rows."""
    steps = eval_steps(matrix.rows, stride, centering)
    *values, final = prefix_eranks(matrix.data, stride, centering, engine)
    velocity, acceleration = differences(values)
    return MetricSeries(
        eval_steps=tuple(steps),
        prefix_values=np.array(values),
        velocity=velocity,
        acceleration=acceleration,
        final=float(final),
    )


def trajectory_metrics(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> tuple[float, MetricSeries]:
    """(final full-matrix effective rank, prefix metric series)."""
    series = prefix_metric_series(matrix, stride, centering, engine)
    return series.final, series
