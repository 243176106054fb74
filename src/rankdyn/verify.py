"""Self-checking suites runnable from the CLI (`rankdyn verify`).

Each suite generates its own synthetic inputs, checks the library's core
mathematical guarantees against independent expectations, and reports
(pass, detail). These mirror the repository test suite so the checks can run
from an installed package without pytest.
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
from .shaping import dynamic_weights, shape_advantage
from .spectral import Centering, effective_rank, spectral_summary
from .tensor_io import GaussianIID, HiddenStateMatrix, OrthogonalRows, generate_synthetic


def suite_rank_bounds(seed: int = 0, count: int = 1000, inject_fault: bool = False) -> tuple[bool, str]:
    """1 <= erank <= rank <= min(T, D), equality iff the spectrum is uniform."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        t = int(rng.integers(2, 129))
        d = int(rng.integers(2, 65))
        if i % 10 == 0:  # mix in uniform-spectrum cases to exercise equality
            k = int(rng.integers(1, min(t, d) + 1))
            matrix = generate_synthetic(OrthogonalRows(k, d, 1.0), int(rng.integers(2**31)))
            matrix = HiddenStateMatrix(matrix.data[:k])
        else:
            matrix = HiddenStateMatrix(rng.standard_normal((t, d)))
        summary = spectral_summary(matrix)
        erank = summary.effective_rank
        if inject_fault and i == count // 2:
            erank += 10.0
        rank = summary.conventional_rank
        if not (1.0 - 1e-12 <= erank <= rank * (1 + 1e-12) and rank <= min(t, d)):
            return False, f"bound violated at sample {i}: erank={erank}, rank={rank}"
        sig = summary.singular_values
        uniform = (sig.max() - sig.min()) <= 1e-9 * sig.max()
        if uniform and abs(erank - rank) > 1e-9 * rank:
            return False, f"uniform spectrum but erank != rank at sample {i}"
        if not uniform and erank >= rank:
            return False, f"non-uniform spectrum but erank >= rank at sample {i}"
    return True, f"{count} matrices checked"


def suite_scaling(seed: int = 0) -> tuple[bool, str]:
    """Orthogonal equal-norm rows: erank ~ k, velocity slope ~ 1/4, acceleration ~ 1/2."""
    ks = [8, 16, 32, 64, 128]
    velocities = []
    for k in ks:
        matrix = generate_synthetic(OrthogonalRows(k, max(2 * k, 16), 1.0), seed + k)
        series = prefix_metric_series(matrix, stride=1)
        final = spectral_summary(matrix).effective_rank
        if abs(final - k) > 0.01 * k:
            return False, f"erank({k} rows) = {final}, off by more than 1%"
        velocities.append(series.velocity)
        if not 0.45 <= series.acceleration <= 0.55:
            return False, f"acceleration {series.acceleration} outside [0.45, 0.55] at k={k}"
    slope = np.polyfit(ks, velocities, 1)[0]
    if not 0.2 <= slope <= 0.3:
        return False, f"velocity slope {slope} outside [0.2, 0.3]"
    return True, f"slope={slope:.4f}"


def suite_closed_forms() -> tuple[bool, str]:
    """Linear series m_n = n: velocity (N+2)/4, acceleration exactly 1/2."""
    for n in (3, 10, 100, 1000):
        series = np.arange(1, n + 1, dtype=np.float64)
        v = first_order_difference(series)
        a = second_order_difference(series)
        if not math.isclose(v, (n + 2) / 4, rel_tol=1e-12):
            return False, f"velocity {v} != {(n + 2) / 4} at N={n}"
        if not math.isclose(a, 0.5, rel_tol=1e-12):
            return False, f"acceleration {a} != 0.5 at N={n}"
    return True, "N in {3, 10, 100, 1000}"


FIXTURES = ("gaussian", "low-rank", "power-law", "offset", "massive")


def hard_fixture(name: str, rows: int, dims: int, seed: int) -> HiddenStateMatrix:
    """Inputs shaped like LLM hidden states, on which Gram-based engines lose
    accuracy: a rank-2 matrix, a j^-alpha spectrum with condition number 1e7,
    a +1e4 common offset, and two massive-activation columns (x1000)."""
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
    elif name == "massive":
        data[:, :2] *= 1000.0
    elif name != "gaussian":
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURES}")
    return HiddenStateMatrix(data)


def prefix_svd_oracle(
    matrix: HiddenStateMatrix, stride: int, centering: Centering = Centering.RAW
) -> np.ndarray:
    """Thin-SVD effective rank of every stride-aligned prefix: the engines' reference."""
    steps = eval_steps(matrix.rows, stride, centering)
    return np.array([effective_rank(HiddenStateMatrix(matrix.data[:t]), centering) for t in steps])


def suite_engine_equivalence(seed: int = 0, count: int = 200) -> tuple[bool, str]:
    """Both engines against the per-prefix SVD oracle: the factor engine within
    1e-10 on every fixture, the incremental Gram engine within 1e-8 on Gaussian
    inputs (it squares the condition number, so it is not held to the others)."""
    rng = np.random.default_rng(seed)
    strides = (1, 8, 40)
    for i in range(count):
        stride = strides[i % len(strides)]
        t = int(rng.integers(max(stride + 2, 8), 161))
        d = int(rng.integers(2, 65))
        gaussian = HiddenStateMatrix(rng.standard_normal((t, d)))
        hard = hard_fixture(FIXTURES[i % len(FIXTURES)], t, d, seed + i)
        centered = i // len(FIXTURES) % 2 == 0
        mode = Centering.ROW_MEAN_CENTERED if centered else Centering.RAW
        for engine, bound, matrix, centering in [
            (Engine.INCREMENTAL_GRAM, 1e-8, gaussian, Centering.RAW),
            (Engine.FACTOR, 1e-10, hard, mode),
        ]:
            values = prefix_metric_series(matrix, stride, centering, engine).prefix_values
            oracle = prefix_svd_oracle(matrix, stride, centering)
            rel = np.max(np.abs(values - oracle) / oracle)
            if rel > bound:
                return False, f"{engine.value} engine off by {rel:.2e} at sample {i}"
    return True, f"{count} trajectories checked"


def suite_shaping(seed: int = 0, count: int = 100_000) -> tuple[bool, str]:
    """Bonus bounds, sign preservation, monotonicity, and weight identities."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(count) * 3.0
    phi = rng.uniform(-1.0, 1.0, count)
    kappa = rng.uniform(1.0, 5.0, count)
    for i in range(count):
        a_hat = shape_advantage(a0[i], phi[i], kappa[i])
        bonus = a_hat - a0[i]
        if not (-1e-15 <= bonus <= abs(a0[i]) / kappa[i] + 1e-15):
            return False, f"bonus {bonus} out of bounds at sample {i}"
        if (a0[i] > 0.0 and not a_hat > 0.0) or (a0[i] < 0.0 and not a_hat <= 0.0):
            return False, f"sign flipped at sample {i}"
    d2 = rng.standard_normal(1000) * 4.0
    for x in d2:
        beta, w0, w1 = dynamic_weights(float(x))
        if not (0.0 < beta < 1.0 and w0 + w1 == 1.0):
            return False, f"weight identity violated at d2={x}"
    # monotonicity of a_hat in phi at fixed (a0, kappa)
    grid = np.linspace(-2.0, 2.0, 41)
    for a in (-1.5, -0.1, 0.0, 0.1, 1.5):
        shaped = [shape_advantage(a, p, 2.0) for p in grid]
        if np.any(np.diff(shaped) < -1e-15):
            return False, f"a_hat not monotone in phi at a0={a}"
    return True, f"{count} samples checked"


SUITES: dict[str, Callable[..., tuple[bool, str]]] = {
    "rank-bounds": suite_rank_bounds,
    "scaling": suite_scaling,
    "closed-forms": lambda seed=0: suite_closed_forms(),
    "engine-equivalence": suite_engine_equivalence,
    "shaping": suite_shaping,
}


def run_suites(
    names: list[str] | None = None, seed: int = 0, inject_fault: bool = False
) -> dict[str, tuple[bool, str]]:
    selected = names or list(SUITES)
    results = {}
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        if name == "rank-bounds":
            results[name] = SUITES[name](seed=seed, inject_fault=inject_fault)
        else:
            results[name] = SUITES[name](seed=seed)
    return results
