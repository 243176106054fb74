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
from .gram_stream import gram_prefix_eranks
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
    stride: int
    eval_steps: tuple[int, ...]
    prefix_values: np.ndarray
    deltas: np.ndarray  # empty when K < 2
    velocity: float | None  # defined iff K >= 2
    acceleration: float | None  # defined iff K >= 3
    final: float  # the metric on all T rows, tail beyond the last step included


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
    values: np.ndarray, stride: int, steps: list[int], final: float
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
        final=float(final),
    )


def factor_prefix_eranks(
    data: np.ndarray, steps: list[int], centering: Centering
) -> np.ndarray:
    """Exact effective rank of each prefix data[:t], t in the increasing steps
    and then t = T, from small triangular factors instead of an SVD of every
    prefix.

    Prefixes with t <= D: one QR of data[:m].T gives a lower-triangular L
    with data[:m] = L Q^T, so data[:t] has the singular values of L[:t, :t].
    Row-mean centering commutes with Q^T, so centered mode centers that block.

    Centered mode first shifts the rows by the mean of the first eval prefix
    (`spectral.shifted`), so a large common offset costs no digits.

    Longer prefixes stream a D-by-D R factor over the rows between consecutive
    ends, R <- qr([R; chunk]) as in TSQR (Demmel et al., SISC 2012). Centered
    mode merges each chunk about its own mean plus one mean-shift row weighted
    sqrt(n*b/(n+b)), the pairwise update of Chan, Golub & LeVeque (1979). No
    Gram matrix is formed and no raw moments are subtracted, so the values
    keep the accuracy of an SVD of each prefix.

    Both QRs run on the LAPACK kernels of `lapack.qr_kernels` (dgeqrt, and a
    dtpqrt update of R in place), or on np.linalg.qr where those are absent.
    """
    from .lapack import fold_rows, qr_kernels, row_factor

    kernels = qr_kernels() is not None
    data = shifted(data, steps, centering)
    rows, dims = data.shape
    if steps[0] <= dims:
        head = data[: min(rows, dims)]
        lower = row_factor(head) if kernels else np.linalg.qr(head.T, mode="r").T
    eranks = []
    factor = np.zeros((dims, dims), order="F") if kernels and rows > dims else np.empty((0, dims))
    count, mean = 0, np.zeros(dims)
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
            if kernels:
                fold_rows(factor, chunk)
            else:
                factor = np.linalg.qr(np.vstack([factor, chunk]), mode="r")
            block, count = factor, t
        sigma = np.linalg.svd(block, compute_uv=False)
        eranks.append(summary_from_singular_values(sigma).effective_rank)
    return np.array(eranks)


def prefix_metric_series(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> MetricSeries:
    """Effective rank on every stride-aligned prefix, its differences, and the
    effective rank of all T rows."""
    steps = eval_steps(matrix.rows, stride, centering)
    eranks = gram_prefix_eranks if engine is Engine.INCREMENTAL_GRAM else factor_prefix_eranks
    *values, final = eranks(matrix.data, steps, centering)
    return series_from_values(values, stride, steps, final)


def trajectory_metrics(
    matrix: HiddenStateMatrix,
    stride: int = DEFAULT_STRIDE,
    centering: Centering = Centering.RAW,
    engine: Engine = Engine.FACTOR,
) -> tuple[float, MetricSeries]:
    """(final full-matrix effective rank, prefix metric series)."""
    series = prefix_metric_series(matrix, stride, centering, engine)
    return series.final, series
