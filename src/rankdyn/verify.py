"""Self-checking suites runnable from the CLI (`rankdyn verify`).

Each suite takes a seed, generates its own synthetic inputs, checks one of
the library's core mathematical guarantees against independent expectations,
and reports (pass, detail). They are the only implementation of these
checks: `tests/test_acceptance.py` calls the same suites at fixed seeds, so
the checks also run from an installed package without pytest.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .dynamics import (
    Engine,
    eval_steps,
    first_order_difference,
    prefix_metric_series,
    second_order_difference,
)
from .shaping import auxiliary_advantage, dynamic_weights, shape_advantage
from .spectral import Centering, SpectralSummary, shifted, spectral_summary
from .tensor_io import HiddenStateMatrix


def suite_rank_bounds(seed: int) -> tuple[bool, str]:
    """1 <= erank <= rank <= min(T, D), equality iff the spectrum is uniform."""
    rng = np.random.default_rng(seed)
    count = 1000
    for i in range(count):
        t = int(rng.integers(2, 129))
        d = int(rng.integers(2, 65))
        if i % 10 == 0:  # mix in uniform-spectrum cases to exercise equality
            k = int(rng.integers(1, min(t, d) + 1))
            matrix = orthogonal_rows(k, d, int(rng.integers(2**31)))
        else:
            matrix = HiddenStateMatrix(rng.standard_normal((t, d)))
        summary = spectral_summary(matrix)
        erank = summary.effective_rank
        rank = summary.conventional_rank
        bounded = 1.0 - 1e-12 <= erank <= rank * (1 + 1e-12)
        if not (bounded and rank <= min(matrix.rows, matrix.cols)):
            return False, f"bound violated at sample {i}: erank={erank}, rank={rank}"
        sig = summary.singular_values
        uniform = (sig.max() - sig.min()) <= 1e-9 * sig.max()
        if uniform and abs(erank - rank) > 1e-9 * rank:
            return False, f"uniform spectrum but erank != rank at sample {i}"
        if not uniform and erank >= rank:
            return False, f"non-uniform spectrum but erank >= rank at sample {i}"
    return True, f"{count} matrices checked"


def suite_scaling(seed: int) -> tuple[bool, str]:
    """Orthogonal equal-norm rows: erank ~ k, velocity slope ~ 1/4, acceleration ~ 1/2."""
    ks = [8, 16, 32, 64, 128]
    velocities = []
    for k in ks:
        matrix = orthogonal_rows(k, max(2 * k, 16), seed + k)
        series = prefix_metric_series(matrix, stride=1)
        if abs(series.final - k) > 0.01 * k:
            return False, f"erank({k} rows) = {series.final}, off by more than 1%"
        velocities.append(series.velocity)
        if not 0.45 <= series.acceleration <= 0.55:
            return False, f"acceleration {series.acceleration} outside [0.45, 0.55] at k={k}"
    slope = np.polyfit(ks, velocities, 1)[0]
    if not 0.2 <= slope <= 0.3:
        return False, f"velocity slope {slope} outside [0.2, 0.3]"
    return True, f"velocity slope {slope:.4f}"


def suite_closed_forms(seed: int) -> tuple[bool, str]:
    """Linear series m_n = n: velocity (N+2)/4, acceleration exactly 1/2. The
    series are fixed, so the seed is unused."""
    for n in (3, 10, 100, 1000):
        series = np.arange(1, n + 1, dtype=np.float64)
        v = first_order_difference(series)
        a = second_order_difference(series)
        if not math.isclose(v, (n + 2) / 4, rel_tol=1e-13):
            return False, f"velocity {v} != {(n + 2) / 4} at N={n}"
        if not math.isclose(a, 0.5, rel_tol=1e-13):
            return False, f"acceleration {a} != 0.5 at N={n}"
    return True, "N in {3, 10, 100, 1000}"


FIXTURES = ("gaussian", "low-rank", "power-law", "offset", "offset-1e8", "massive")


def hard_fixture(name: str, rows: int, dims: int, seed: int) -> HiddenStateMatrix:
    """Inputs shaped like LLM hidden states, on which Gram-based engines lose
    accuracy: a rank-2 matrix, a j^-alpha spectrum with condition number 1e7,
    a +1e4 and a +1e8 common offset, and two massive-activation columns (x1000)."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, dims))
    if name == "low-rank":
        data = data[:, :2] @ rng.standard_normal((2, dims))
    elif name == "power-law":
        n = min(rows, dims)
        left = np.linalg.qr(data[:, :n])[0]
        right = np.linalg.qr(rng.standard_normal((dims, n)))[0]
        data = (left * np.arange(1, n + 1) ** (-7.0 / math.log10(max(n, 2)))) @ right.T
    elif name == "offset":
        data += 1e4
    elif name == "offset-1e8":
        data += 1e8
    elif name == "massive":
        data[:, :2] *= 1000.0
    elif name != "gaussian":
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    return HiddenStateMatrix(data)


def orthogonal_rows(k: int, dims: int, seed: int) -> HiddenStateMatrix:
    """k <= dims orthonormal rows in R^dims: a uniform spectrum, so erank = k."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dims, k)))
    return HiddenStateMatrix(q.T)


def prefix_spectra(
    matrix: HiddenStateMatrix, stride: int, centering: Centering = Centering.RAW
) -> list[SpectralSummary]:
    """Thin-SVD spectrum of every stride-aligned prefix and then of all T rows.
    Centered mode shifts the rows as the engines do."""
    steps = eval_steps(matrix.rows, stride, centering)
    data = shifted(matrix.data, steps, centering)
    ends = [*steps, matrix.rows]
    return [spectral_summary(HiddenStateMatrix(data[:t]), centering) for t in ends]


def prefix_svd_oracle(
    matrix: HiddenStateMatrix, stride: int, centering: Centering = Centering.RAW
) -> np.ndarray:
    """Effective rank of every stride-aligned prefix and then of all T rows:
    the engines' reference."""
    return np.array([s.effective_rank for s in prefix_spectra(matrix, stride, centering)])


# Per engine, the relative drift from the oracle that it is held to, on the
# prefixes whose condition number is below a limit. The Gram engine squares
# the condition number, so it is held only below GRAM_CONDITION_LIMIT.
GRAM_CONDITION_LIMIT = 1e6
ENGINE_BOUNDS = {
    Engine.FACTOR: (1e-12, math.inf),
    Engine.INCREMENTAL_GRAM: (1e-8, GRAM_CONDITION_LIMIT),
}


def engine_drift(
    matrix: HiddenStateMatrix, stride: int, centering: Centering, engine: Engine
) -> float:
    """Largest relative drift of an engine's values, the prefixes' and the
    final one, from the oracle, over the prefixes that ENGINE_BOUNDS holds it on."""
    spectra = prefix_spectra(matrix, stride, centering)
    oracle = np.array([s.effective_rank for s in spectra])
    series = prefix_metric_series(matrix, stride, centering, engine)
    rel = np.abs([*series.prefix_values, series.final] - oracle) / oracle
    conditions = np.array([s.singular_values[0] / s.singular_values[-1] for s in spectra])
    return float(rel[conditions < ENGINE_BOUNDS[engine][1]].max(initial=0.0))


def suite_engine_equivalence(seed: int) -> tuple[bool, str]:
    """Both engines against the per-prefix SVD oracle on every fixture, in
    both centerings, at T up to 256, within ENGINE_BOUNDS."""
    rng = np.random.default_rng(seed)
    strides = (1, 8, 40)
    count = 200
    for i in range(count):
        # Every (fixture, centering, stride) in turn.
        fixture = FIXTURES[i % len(FIXTURES)]
        centered = i // len(FIXTURES) % 2 == 0
        centering = Centering.ROW_MEAN_CENTERED if centered else Centering.RAW
        stride = strides[i // (2 * len(FIXTURES)) % len(strides)]
        t = int(rng.integers(max(stride + 2, 8), 257))
        d = int(rng.integers(2, 65))
        matrix = hard_fixture(fixture, t, d, seed + i)
        for engine, (bound, _) in ENGINE_BOUNDS.items():
            rel = engine_drift(matrix, stride, centering, engine)
            if rel > bound:
                return False, f"{engine.value} engine off by {rel:.2e} on {fixture} at sample {i}"
    return True, f"{count} trajectories checked"


def suite_shaping(seed: int) -> tuple[bool, str]:
    """Bonus bounds, sign preservation, |phi| < 1, monotonicity in phi, and
    weight identities."""
    rng = np.random.default_rng(seed)
    count = 100_000
    a0 = rng.standard_normal(count) * 3.0
    phi = rng.uniform(-2.0, 2.0, count)
    kappa = rng.uniform(1.0, 5.0, count)
    for i in range(count):
        a_hat = shape_advantage(a0[i], phi[i], kappa[i])
        bonus = a_hat - a0[i]
        if not (0.0 <= bonus <= abs(a0[i]) / kappa[i] + 1e-15):
            return False, f"bonus {bonus} out of bounds at sample {i}"
        if (a0[i] > 0.0 and not a_hat > 0.0) or (a0[i] < 0.0 and not a_hat <= 0.0):
            return False, f"sign flipped at sample {i}"
    d2 = rng.standard_normal(2000) * 5.0
    for x in d2:
        beta, w0, w1 = dynamic_weights(float(x))
        if not (0.0 < beta < 1.0 and w0 + w1 == 1.0):
            return False, f"weight identity violated at d2={x}"
        d0, d1 = float(rng.standard_normal()), float(rng.standard_normal())
        if not abs(auxiliary_advantage(d0, d1, (w0, w1))) < 1.0:
            return False, f"|phi| >= 1 at d0={d0}, d1={d1}, d2={x}"
    # monotonicity of a_hat in phi at fixed (a0, kappa)
    grid = np.linspace(-2.0, 2.0, 101)
    for a in (-2.0, -1.5, -1.0, -0.1, 0.0, 0.1, 0.4, 1.5, 2.0):
        shaped = [shape_advantage(a, p, 2.0) for p in grid]
        if np.any(np.diff(shaped) < 0.0):
            return False, f"a_hat not monotone in phi at a0={a}"
    return True, f"{count} samples checked"


SUITES: dict[str, Callable[[int], tuple[bool, str]]] = {
    "rank-bounds": suite_rank_bounds,
    "scaling": suite_scaling,
    "closed-forms": suite_closed_forms,
    "engine-equivalence": suite_engine_equivalence,
    "shaping": suite_shaping,
}
