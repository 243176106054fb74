"""Paired micro-benchmark: naive vs incremental Gram construction.

Times only the construction phase -- building the prefix Gram matrices --
since the eigendecomposition cost is identical on both paths. Naive
reconstruction recomputes Z_{1:t} Z_{1:t}^T from scratch at every stride
step (O(D*T^3/s) total); the incremental path extends the previous Gram
block-wise (O(D*T^2) total).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import eval_steps
from .gram_stream import GramStreamState
from .tensor_io import GaussianIID, generate_synthetic


@dataclass(frozen=True)
class BenchResult:
    rows: int
    dims: int
    stride: int
    naive_seconds: float
    incremental_seconds: float

    @property
    def ratio(self) -> float:
        return self.incremental_seconds / self.naive_seconds


def naive_construction_seconds(data: np.ndarray, stride: int) -> float:
    start = time.perf_counter()
    for step in eval_steps(data.shape[0], stride):
        prefix = data[:step]
        _ = prefix @ prefix.T
    return time.perf_counter() - start


def incremental_construction_seconds(data: np.ndarray, stride: int) -> float:
    start = time.perf_counter()
    state = GramStreamState(data.shape[1])
    for step in eval_steps(data.shape[0], stride):
        state.extend(data[step - stride : step])
    return time.perf_counter() - start


def run_point(
    rows: int, dims: int, stride: int, repeats: int = 5, seed: int = 0
) -> BenchResult:
    """Median-of-repeats timing for one (T, D, s) grid point, warm-up excluded."""
    data = generate_synthetic(GaussianIID(rows, dims), seed).data
    naive_construction_seconds(data, stride)  # warm-up
    incremental_construction_seconds(data, stride)
    naive = [naive_construction_seconds(data, stride) for _ in range(repeats)]
    incr = [incremental_construction_seconds(data, stride) for _ in range(repeats)]
    return BenchResult(
        rows, dims, stride, statistics.median(naive), statistics.median(incr)
    )


def run_grid(
    sizes: list[int],
    dims: int,
    stride: int,
    repeats: int = 5,
    seed: int = 0,
) -> list[BenchResult]:
    return [run_point(t, dims, stride, repeats, seed) for t in sizes]


def quadratic_fit_r2(sizes: list[int], seconds: list[float]) -> float:
    """R^2 of a least-squares fit seconds ~ a*T^2 + b."""
    x = np.asarray(sizes, dtype=np.float64) ** 2
    y = np.asarray(seconds, dtype=np.float64)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    total = y - y.mean()
    denom = float(total @ total)
    if denom == 0.0:
        return 1.0
    return 1.0 - float(resid @ resid) / denom
