"""Prefix effective rank from Gram eigenvalues (`--engine incremental`).

In centered mode the rows are first shifted by the mean of the first eval
prefix (`spectral.shifted`), so the Gram products below see no large common
offset. Prefixes of t <= D rows take the leading t-by-t block of one Gram
matrix G = Z Z^T of the first rows, centered algebraically with r, the row
means of that block:

    G_c = G - r 1^T - 1 r^T + mean(r)

Longer prefixes accumulate the D-by-D scatter S = Z^T Z and the row sum s
chunk by chunk, centered as S - s s^T / t. Effective rank then comes from the
eigenvalues, sigma_j = sqrt(lambda_j). A Gram matrix squares the condition
number of the rows, so this engine trails a per-prefix SVD on
ill-conditioned inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMatrix, DimensionMismatch
from .spectral import Centering, shifted, summary_from_singular_values

# Gram eigenvalues below this fraction of the trace are clamped to zero
# before the square root (the Gram path squares the conditioning of SVD).
EIGENVALUE_CLAMP = 1e-14


class GramStreamState:
    """The D-by-D scatter Z^T Z, the row sum and the row count t of the rows
    seen so far."""

    def __init__(self, dims: int):
        self.dims = dims
        self.t = 0
        self.scatter = np.zeros((dims, dims))
        self.row_sum = np.zeros(dims)

    def extend(self, chunk: np.ndarray) -> "GramStreamState":
        """Add a chunk of new rows, in O(b D^2) for b rows."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or chunk.shape[1] != self.dims:
            raise DimensionMismatch(
                f"chunk of shape {chunk.shape} does not match dims={self.dims}"
            )
        if chunk.shape[0] < 1:
            raise DimensionMismatch("chunk must contain at least one row")
        self.scatter += chunk.T @ chunk
        self.row_sum += chunk.sum(axis=0)
        self.t += chunk.shape[0]
        return self


def erank_from_gram(gram: np.ndarray) -> float:
    """Effective rank from a symmetric PSD Gram matrix."""
    gram = np.asarray(gram, dtype=np.float64)
    eigvals = np.linalg.eigvalsh(gram)
    clamp = EIGENVALUE_CLAMP * max(float(np.trace(gram)), 0.0)
    eigvals = np.where(eigvals > clamp, eigvals, 0.0)
    if not np.any(eigvals > 0.0):
        raise DegenerateMatrix("Gram matrix has no eigenvalue above the clamp")
    return summary_from_singular_values(np.sqrt(eigvals)).effective_rank


def gram_prefix_eranks(
    data: np.ndarray, steps: list[int], centering: Centering
) -> np.ndarray:
    """Effective rank of each prefix data[:t], t in the increasing steps."""
    data = shifted(data, steps, centering)
    dims = data.shape[1]
    centered = centering is Centering.ROW_MEAN_CENTERED
    head = data[: max((t for t in steps if t <= dims), default=0)]
    head_gram = head @ head.T
    state = GramStreamState(dims)
    eranks = []
    for t in steps:
        if t <= dims:
            gram = head_gram[:t, :t]
            if centered:
                r = gram.mean(axis=1)
                gram = gram - r[:, None] - r[None, :] + r.mean()
        else:
            state.extend(data[state.t : t])
            gram = state.scatter
            if centered:
                gram = gram - np.outer(state.row_sum, state.row_sum) / t
        eranks.append(erank_from_gram(gram))
    return np.array(eranks)
