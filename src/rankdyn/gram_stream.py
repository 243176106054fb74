"""Streaming effective rank via incremental Gram-matrix updates.

Instead of recomputing the Gram matrix of every growing prefix from scratch
(O(D*T^3/s) construction over a whole trajectory), the stream maintains two
sufficient statistics -- the uncentered Gram matrix U_t = Z Z^T and the row
sum s_t -- and extends U_t block-wise as chunks arrive, for O(D*T^2) total
construction cost. The centered Gram matrix is reconstructed algebraically:

    G_t = U_t - c 1^T - 1 c^T + (mu^T mu) 1 1^T,   c = Z mu,  mu = s_t / t

Effective rank then comes from the eigenvalues of the (centered or raw) Gram
matrix, sigma_j = sqrt(lambda_j).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMatrix, DimensionMismatch, TooFewRows
from .spectral import Centering, summary_from_singular_values
from .tensor_io import HiddenStateMatrix

# Gram eigenvalues below this fraction of the trace are clamped to zero
# before the square root (the Gram path squares the conditioning of SVD).
EIGENVALUE_CLAMP = 1e-14


class GramStreamState:
    """Single-writer accumulator for one token stream.

    Keeps the raw rows: both the off-diagonal block update and the Z*mu term
    need the history. The savings are in avoided recomputation of Gram
    blocks, not in storage.
    """

    def __init__(self, dims: int, capacity: int = 64):
        self.dims = dims
        self.t = 0
        self.row_sum = np.zeros(dims)
        # Capacity-doubling buffers keep extend() amortized: reallocating a
        # fresh t-by-t Gram on every chunk would itself cost O(T^3/s) copies.
        self._gram_buf = np.empty((capacity, capacity))
        self._rows_buf = np.empty((capacity, dims))

    @property
    def uncentered_gram(self) -> np.ndarray:
        return self._gram_buf[: self.t, : self.t]

    @property
    def retained_rows(self) -> np.ndarray:
        return self._rows_buf[: self.t]

    def _reserve(self, new_t: int) -> None:
        cap = self._gram_buf.shape[0]
        if new_t <= cap:
            return
        while cap < new_t:
            cap *= 2
        grown = np.empty((cap, cap))
        grown[: self.t, : self.t] = self._gram_buf[: self.t, : self.t]
        self._gram_buf = grown
        rows = np.empty((cap, self.dims))
        rows[: self.t] = self._rows_buf[: self.t]
        self._rows_buf = rows

    def extend(self, chunk: np.ndarray) -> "GramStreamState":
        """Append a chunk of new rows, updating U_t block-wise in place."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 2 or chunk.shape[1] != self.dims:
            raise DimensionMismatch(
                f"chunk of shape {chunk.shape} does not match dims={self.dims}"
            )
        if chunk.shape[0] < 1:
            raise DimensionMismatch("chunk must contain at least one row")
        s = chunk.shape[0]
        t = self.t
        new_t = t + s
        self._reserve(new_t)
        if t:
            cross = self._rows_buf[:t] @ chunk.T
            self._gram_buf[:t, t:new_t] = cross
            self._gram_buf[t:new_t, :t] = cross.T
        self._gram_buf[t:new_t, t:new_t] = chunk @ chunk.T
        self._rows_buf[t:new_t] = chunk
        self.row_sum = self.row_sum + chunk.sum(axis=0)
        self.t = new_t
        return self

    def centered_gram(self) -> np.ndarray:
        """Reconstruct the Gram matrix of the row-mean-centered prefix."""
        if self.t < 2:
            raise TooFewRows("centered Gram needs at least 2 rows")
        mu = self.row_sum / self.t
        c = self.retained_rows @ mu
        g = self.uncentered_gram - c[:, None] - c[None, :] + float(mu @ mu)
        return g


def erank_from_gram(gram: np.ndarray) -> float:
    """Effective rank from a symmetric PSD Gram matrix."""
    gram = np.asarray(gram, dtype=np.float64)
    eigvals = np.linalg.eigvalsh(gram)
    clamp = EIGENVALUE_CLAMP * max(float(np.trace(gram)), 0.0)
    eigvals = np.where(eigvals > clamp, eigvals, 0.0)
    if not np.any(eigvals > 0.0):
        raise DegenerateMatrix("Gram matrix has no eigenvalue above the clamp")
    return summary_from_singular_values(np.sqrt(eigvals)).effective_rank


def stream_prefix_eranks(
    matrix: HiddenStateMatrix, stride: int, centering: Centering = Centering.RAW
) -> np.ndarray:
    """Effective rank of every stride-aligned prefix via the streaming path.

    Matches the naive per-prefix SVD series within tight relative tolerance,
    on the same steps (centered mode starts at two rows).
    """
    from .dynamics import eval_steps  # local import to avoid a cycle

    steps = eval_steps(matrix.rows, stride, centering)
    state = GramStreamState(matrix.cols)
    out = np.empty(len(steps))
    prev = 0
    for i, step in enumerate(steps):
        state.extend(matrix.data[prev:step])
        prev = step
        if centering is Centering.ROW_MEAN_CENTERED:
            gram = state.centered_gram()
        else:
            gram = state.uncentered_gram
        out[i] = erank_from_gram(gram)
    return out
