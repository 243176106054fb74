"""Prefix effective rank from Gram eigenvalues (`--engine incremental`).

`dynamics.prefix_eranks` shifts the rows in centered mode, so the Gram
products below see no large common offset. Prefixes of t <= D rows take the
leading t-by-t block of one Gram matrix G = Z Z^T of the first rows, centered
algebraically with r, the row means of that block:

    G_c = G - r 1^T - 1 r^T + mean(r)

Longer prefixes accumulate the D-by-D scatter S = Z^T Z and the row sum s
chunk by chunk, centered as S - s s^T / t. Effective rank then comes from the
eigenvalues, sigma_j = sqrt(lambda_j). A Gram matrix squares the condition
number of the rows, so this engine trails a per-prefix SVD on ill-conditioned
inputs.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import NonFiniteValue
from .lapack import eigvalsh
from .spectral import Centering, summary_from_singular_values

# Gram eigenvalues below this fraction of the trace are clamped to zero
# before the square root (the Gram path squares the conditioning of SVD).
EIGENVALUE_CLAMP = 1e-14


class GramStreamState:
    """The D-by-D scatter Z^T Z, the row sum and the row count t of the rows
    seen so far."""

    def __init__(self, dims: int):
        self.t = 0
        self.scatter = np.zeros((dims, dims))
        self.row_sum = np.zeros(dims)

    def extend(self, chunk: np.ndarray) -> "GramStreamState":
        """Add b >= 1 new float64 rows of D columns, in O(b D^2)."""
        self.scatter += chunk.T @ chunk
        self.row_sum += chunk.sum(axis=0)
        self.t += chunk.shape[0]
        return self


def erank_from_gram(gram: np.ndarray) -> float:
    """Effective rank from a symmetric PSD Gram matrix, read from its lower
    triangle, as np.linalg.eigvalsh reads it. An F-contiguous, writeable
    float64 gram is solved in place, and its lower triangle is overwritten;
    any other gram is copied first. A NaN or infinite row of Z reaches the
    diagonal of Z Z^T, so a non-finite trace raises NonFiniteValue."""
    gram = np.require(gram, np.float64, ["F", "W"])
    trace = float(np.trace(gram))
    if not np.isfinite(trace):
        raise NonFiniteValue("Gram matrix contains NaN or Inf")
    clamp = EIGENVALUE_CLAMP * max(trace, 0.0)
    eigvals = eigvalsh(gram)
    eigvals = np.where(eigvals > clamp, eigvals, 0.0)
    return summary_from_singular_values(np.sqrt(eigvals)).effective_rank


def gram_eranks(data: np.ndarray, ends: list[int], centering: Centering,
                first: int, stop: int) -> Iterator[float]:
    """The ER of each prefix data[:t], t in ends[first:stop], of C-contiguous float64
    rows, from its Gram matrix, centered in centered mode, built and solved in place
    in one F-ordered buffer. Every row to the last end solved is scattered, solved or not."""
    rows, dims = data.shape
    centered = centering is Centering.ROW_MEAN_CENTERED
    # Up to every end within D, so a range keeps the whole walk's bits; none if none is solved.
    within = [t for t in ends if t <= dims] if ends[first] <= dims else []
    head = data[: max(within, default=0)]
    head_gram = head @ head.T
    buffer = np.empty(min(rows, dims) ** 2)
    state = GramStreamState(dims) if ends[stop - 1] > dims else None
    for index, t in enumerate(ends[:stop]):
        if t > dims:
            state.extend(data[state.t : t])
        if index < first:
            continue
        n = min(t, dims)
        gram = buffer[: n * n].reshape(n, n, order="F")
        if t <= dims:
            block = head_gram[:t, :t]
            # syrk's head_gram is exactly symmetric; gram.T is filled row by row, 4x faster
            np.copyto(gram.T, block)
            if centered:
                r = block.mean(axis=1)  # summed in the C order of the block
                gram -= r[:, None]
                gram -= r[None, :]
                gram += r.mean()
        else:
            np.copyto(gram, state.scatter)
            if centered:
                outer = np.outer(state.row_sum, state.row_sum)
                outer /= t
                gram -= outer
        yield erank_from_gram(gram)
