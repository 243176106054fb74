"""Singular-value spectra, effective rank, and conventional rank.

The effective rank of a matrix is exp(H(p)) where p is the distribution
obtained by normalizing the singular values, p_j = sigma_j / sum_k sigma_k,
and H is the Shannon entropy in nats. Singular values below a relative
threshold are treated as numerically zero and excluded from p, which makes
the conventional-rank count and the 1 <= erank <= rank bound deterministic.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrix
from .tensor_io import HiddenStateMatrix

# Relative cutoff for treating a singular value as zero.
RANK_TOLERANCE = 1e-12


class Centering(enum.Enum):
    RAW = "raw"
    ROW_MEAN_CENTERED = "rowmean"


@dataclass(frozen=True)
class SpectralSummary:
    singular_values: np.ndarray  # descending, retained (nonzero) values only
    distribution: np.ndarray  # p_j, sums to 1
    entropy: float  # nats
    effective_rank: float
    conventional_rank: int


def center(data: np.ndarray, centering: Centering) -> np.ndarray:
    if centering is Centering.RAW:
        return data
    return data - data.mean(axis=0, keepdims=True)


def rescaled(matrix: HiddenStateMatrix) -> np.ndarray:
    """matrix.data, unless its peak |value| lies outside [2^-400, 2^400], where
    Gram squares and sums near the f64 limits: then the data scaled into [1/2, 1)
    by an exact power of two (ER is scale-free)."""
    if 2.0**-400 <= matrix.peak <= 2.0**400:
        return matrix.data
    return np.ldexp(matrix.data, -np.frexp(matrix.peak)[1])


def shifted(matrix: HiddenStateMatrix, steps: Sequence[int], centering: Centering) -> np.ndarray:
    """Centered mode: the `rescaled` data less one shift row, the mean of its
    first eval prefix data[:steps[0]]. Centering ignores a common shift, and
    removing a large offset before any product keeps the rounding relative to
    the spread of the rows, not to the offset. Raw mode: the `rescaled` data."""
    data = rescaled(matrix)
    if centering is Centering.RAW:
        return data
    return data - data[: steps[0]].mean(axis=0)


def summary_from_singular_values(sigma: np.ndarray) -> SpectralSummary:
    """Build the spectral summary from raw (possibly noisy) singular values."""
    sigma = np.sort(np.asarray(sigma, dtype=np.float64))[::-1]
    sigma = np.clip(sigma, 0.0, None)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise DegenerateMatrix("all singular values vanish")
    retained = sigma[sigma > RANK_TOLERANCE * sigma[0]]
    p = retained / retained.sum()
    entropy = float(-(p * np.log(p)).sum())
    return SpectralSummary(
        singular_values=retained,
        distribution=p,
        entropy=entropy,
        effective_rank=math.exp(entropy),
        conventional_rank=int(retained.size),
    )


def spectral_summary(
    matrix: HiddenStateMatrix, centering: Centering = Centering.RAW
) -> SpectralSummary:
    """Thin-SVD spectral summary of the (optionally centered) matrix, of any
    finite magnitude: it is `rescaled` before centering."""
    data = center(rescaled(matrix), centering)
    sigma = np.linalg.svd(data, compute_uv=False)
    return summary_from_singular_values(sigma)


def effective_rank(
    matrix: HiddenStateMatrix, centering: Centering = Centering.RAW
) -> float:
    return spectral_summary(matrix, centering).effective_rank
