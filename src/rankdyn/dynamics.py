"""Prefix-wise metric series and its first/second-order temporal differences.

For a trajectory of T tokens and stride s, the metric is evaluated on the
growing prefixes at steps {s, 2s, ..., Ks}, K = floor((T-1)/s). The
instantaneous difference compares each value against the running mean of all
earlier values:

    delta_j = m_j - mean(m_1 .. m_{j-1})          (j >= 2)

The velocity is the mean of the deltas (defined iff K >= 2) and the
acceleration is the mean of consecutive delta differences (defined iff
K >= 3). For the exactly linear series m_n = n these reduce to (N+2)/4 and
1/2 respectively.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import gram_stream
from .errors import SeriesTooShort, TrajectoryTooShort
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


def instantaneous_deltas(values: np.ndarray) -> np.ndarray:
    """delta_j = m_j - running mean of m_1..m_{j-1}, for j = 2..K."""
    values = np.asarray(values, dtype=np.float64)
    k = values.size
    if k < 2:
        return np.empty(0)
    running_means = np.cumsum(values[:-1]) / np.arange(1, k)
    return values[1:] - running_means


def first_order_difference(prefix_values: np.ndarray) -> float:
    """Mean of the instantaneous deltas (the series' velocity)."""
    deltas = instantaneous_deltas(prefix_values)
    if deltas.size < 1:
        raise SeriesTooShort("velocity needs at least 2 prefix values")
    return float(deltas.mean())


def second_order_difference(prefix_values: np.ndarray) -> float:
    """Mean change between consecutive deltas (the series' acceleration)."""
    deltas = instantaneous_deltas(prefix_values)
    if deltas.size < 2:
        raise SeriesTooShort("acceleration needs at least 3 prefix values")
    return float(np.diff(deltas).mean())


def series_from_values(values: np.ndarray, steps: list[int], final: float) -> MetricSeries:
    values = np.asarray(values, dtype=np.float64)
    return MetricSeries(
        eval_steps=tuple(steps),
        prefix_values=values,
        velocity=first_order_difference(values) if values.size >= 2 else None,
        acceleration=second_order_difference(values) if values.size >= 3 else None,
        final=float(final),
    )


def factor_blocks(data: np.ndarray, ends: list[int], centering: Centering) -> Iterator[np.ndarray]:
    """Per end t, a matrix with the singular values of the prefix data[:t],
    centered in centered mode, from small triangular factors.

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
    R that starts at zero.
    """
    rows, dims = data.shape
    if ends[0] <= dims:
        lower = row_factor(data[: min(rows, dims)])
    if rows > dims:
        factor = np.zeros((dims, dims), order="F")
    count, mean = 0, np.zeros(dims)
    for t in ends:
        if t <= dims:
            block = center(lower[:t, :t], centering)
        else:
            chunk = data[count:t]
            if centering is Centering.ROW_MEAN_CENTERED:
                b = t - count
                chunk_mean = chunk.mean(axis=0)
                shift = math.sqrt(count * b / t) * (chunk_mean - mean)
                chunk = np.vstack([chunk - chunk_mean, shift])
                mean = mean + (chunk_mean - mean) * (b / t)
            fold_rows(factor, chunk)
            block, count = factor, t
        yield block


def prefix_eranks(
    data: np.ndarray, steps: list[int], centering: Centering, engine: Engine
) -> np.ndarray:
    """Effective rank of each prefix data[:t], t in the increasing steps and
    then t = T, the final ER. Centered mode first shifts the rows by the mean
    of the first eval prefix (`spectral.shifted`). Each engine yields one
    matrix per end, solved here before the engine resumes and may overwrite it."""
    ends = [*steps, data.shape[0]]
    build = gram_stream.gram_blocks if engine is Engine.INCREMENTAL_GRAM else factor_blocks
    blocks = build(shifted(data, steps, centering), ends, centering)
    if engine is Engine.INCREMENTAL_GRAM:
        # Looked up on its module at each call: perfbench wraps it there.
        return np.array([gram_stream.erank_from_gram(gram) for gram in blocks])
    sigmas = (np.linalg.svd(block, compute_uv=False) for block in blocks)
    return np.array([summary_from_singular_values(s).effective_rank for s in sigmas])


def prefix_metric_series(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> MetricSeries:
    """Effective rank on every stride-aligned prefix, its differences, and the
    effective rank of all T rows."""
    steps = eval_steps(matrix.rows, stride, centering)
    *values, final = prefix_eranks(matrix.data, steps, centering, engine)
    return series_from_values(values, steps, final)


def trajectory_metrics(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> tuple[float, MetricSeries]:
    """(final full-matrix effective rank, prefix metric series)."""
    series = prefix_metric_series(matrix, stride, centering, engine)
    return series.final, series
