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
from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort, TrajectoryTooShort
from .spectral import Centering, center, effective_rank, summary_from_singular_values
from .tensor_io import HiddenStateMatrix

DEFAULT_STRIDE = 40


class Engine(enum.Enum):
    FACTOR = "naive"
    INCREMENTAL_GRAM = "incremental"
    NAIVE_SVD = FACTOR  # former name of FACTOR, still spelled so in perfbench/


@dataclass(frozen=True)
class MetricSeries:
    stride: int
    eval_steps: tuple[int, ...]
    prefix_values: np.ndarray
    deltas: np.ndarray  # empty when K < 2
    velocity: float | None  # defined iff K >= 2
    acceleration: float | None  # defined iff K >= 3
    # m-by-m, m = min(T, D): the singular values of the whole (centered)
    # trajectory, for the final metric; None from the incremental engine.
    factor: np.ndarray | None = None


def eval_steps(rows: int, stride: int, centering: Centering = Centering.RAW) -> list[int]:
    """The stride multiples below `rows`. A centered prefix needs two rows, so
    centered mode starts at the first multiple >= 2 (t=2 at stride 1)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
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


def series_from_values(
    values: np.ndarray, stride: int, steps: list[int], factor: np.ndarray | None = None
) -> MetricSeries:
    values = np.asarray(values, dtype=np.float64)
    deltas = instantaneous_deltas(values)
    velocity = float(deltas.mean()) if deltas.size >= 1 else None
    acceleration = float(np.diff(deltas).mean()) if deltas.size >= 2 else None
    return MetricSeries(
        stride=stride,
        eval_steps=tuple(steps),
        prefix_values=values,
        deltas=deltas,
        velocity=velocity,
        acceleration=acceleration,
        factor=factor,
    )


def factor_prefix_eranks(
    data: np.ndarray, steps: list[int], centering: Centering
) -> tuple[np.ndarray, np.ndarray]:
    """Exact effective rank of each prefix data[:t], t in the increasing steps,
    from small triangular factors instead of an SVD of every prefix, plus an
    m-by-m factor, m = min(T, D), of all of the (centered) data.

    Prefixes with t <= D: one QR of data[:m].T gives a lower-triangular L
    with data[:m] = L Q^T, so data[:t] has the singular values of L[:t, :t].
    Row-mean centering commutes with Q^T, so centered mode centers that block.

    Longer prefixes stream a D-by-D R factor over the rows between consecutive
    ends, R <- qr([R; chunk]) as in TSQR (Demmel et al., SISC 2012). Centered
    mode merges each chunk about its own mean plus one mean-shift row weighted
    sqrt(n*b/(n+b)), the pairwise update of Chan, Golub & LeVeque (1979). No
    Gram matrix is formed and no raw moments are subtracted, so the values
    keep the accuracy of an SVD of each prefix.
    """
    rows, dims = data.shape
    if steps[0] <= dims:
        lower = np.linalg.qr(data[: min(rows, dims)].T, mode="r").T
    eranks = []
    factor, count, mean = np.empty((0, dims)), 0, np.zeros(dims)
    for t in [*steps, rows]:
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
            factor = block = np.linalg.qr(np.vstack([factor, chunk]), mode="r")
            count = t
        if t < rows:
            sigma = np.linalg.svd(block, compute_uv=False)
            eranks.append(summary_from_singular_values(sigma).effective_rank)
    return np.array(eranks), block


def prefix_metric_series(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> MetricSeries:
    """Effective rank on every stride-aligned prefix, plus its differences."""
    steps = eval_steps(matrix.rows, stride, centering)
    if engine is Engine.INCREMENTAL_GRAM:
        from .gram_stream import stream_prefix_eranks

        values, factor = stream_prefix_eranks(matrix, stride, centering), None
    else:
        values, factor = factor_prefix_eranks(matrix.data, steps, centering)
    return series_from_values(values, stride, steps, factor)


def trajectory_metrics(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> tuple[float, MetricSeries]:
    """(final full-matrix effective rank, prefix metric series).

    The final metric always uses all T rows, even the tail beyond the last
    stride-aligned step.
    """
    series = prefix_metric_series(matrix, stride, centering, engine)
    if series.factor is not None:
        # Already centered, and it holds the tail rows as well.
        matrix, centering = HiddenStateMatrix(series.factor), Centering.RAW
    return effective_rank(matrix, centering), series
