"""Advantage shaping from representational dynamics.

Per trajectory, the three metrics (final effective rank, its velocity, its
acceleration) are normalized against EMA baselines into relative deviations
d_k = (m_k - mu_k) / (|mu_k| + eps). The acceleration deviation drives a
sigmoid meta-controller beta that interpolates between an exploration
profile [1, 0] (rank channel) and an exploitation profile [0, 1] (velocity
channel); the resulting auxiliary advantage

    phi = w0 * tanh(d0) + w1 * tanh(d1)

is added to the base advantage as a clipped, non-negative bonus:

    a_hat = a0 + min(max(0, phi), |a0| / kappa)

Also provides group-relative (GRPO-style) advantages and the rule-based
correctness/format reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GroupTooSmall

METRICS = ("er", "erv", "era")


@dataclass(frozen=True)
class EmaState:
    """Per-metric exponential moving averages with warm-up tracking.

    An immutable value: ema_update and shape_from_metrics return the next
    state. By default the first observation seeds the baseline (so the first
    deviation is exactly 0). With literal_zero_init the baselines start at 0
    and every observation applies the gamma blend, which makes the very
    first deviation m/eps -- kept behind a flag for fidelity studies.
    """

    gamma: float = 0.9
    literal_zero_init: bool = False
    means: dict[str, float] = field(default_factory=lambda: dict.fromkeys(METRICS, 0.0))
    observations: dict[str, int] = field(default_factory=lambda: dict.fromkeys(METRICS, 0))

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    def seeds(self, metric: str) -> bool:
        """Whether the next observation of metric becomes its baseline as is."""
        return self.observations[metric] == 0 and not self.literal_zero_init

    def baseline(self, metric: str, m: float) -> float:
        """The baseline an observation m is measured against."""
        return m if self.seeds(metric) else self.means[metric]


def ema_update(state: EmaState, metric: str, m: float) -> EmaState:
    """The state with one observation blended into the given metric's baseline."""
    if metric not in METRICS:
        raise KeyError(f"unknown metric {metric!r}")
    if not math.isfinite(m):
        raise ValueError("EMA observation must be finite")
    g = state.gamma
    mean = m if state.seeds(metric) else g * state.means[metric] + (1.0 - g) * m
    return replace(
        state,
        means={**state.means, metric: mean},
        observations={**state.observations, metric: state.observations[metric] + 1},
    )


def require_positive_finite(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ShapingConfig:
    """Shaping settings; the EMA's gamma and zero-init flag live on EmaState."""

    kappa: float = 2.0
    epsilon: float = 1e-8
    pre_update_deviation: bool = False

    def __post_init__(self):
        require_positive_finite("kappa", self.kappa)
        require_positive_finite("epsilon", self.epsilon)


@dataclass(frozen=True)
class ShapingOutcome:
    d0: float
    d1: float | None
    d2: float | None
    beta: float | None
    phi: float | None
    a0: float
    a_hat: float

    @property
    def shaped(self) -> bool:
        return self.phi is not None


def relative_deviation(m: float, mu: float, epsilon: float) -> float:
    """How far an observation sits from its baseline, in baseline units."""
    require_positive_finite("epsilon", epsilon)
    return (m - mu) / (abs(mu) + epsilon)


def dynamic_weights(d2: float) -> tuple[float, float, float]:
    """(beta, exploration coeff, exploitation coeff) from the d2 signal."""
    try:
        beta = 1.0 / (1.0 + math.exp(-d2))
    except OverflowError:  # exp(-d2) past the float range: beta rounds to 0
        beta = 0.0
    return beta, beta, 1.0 - beta


def auxiliary_advantage(d0: float, d1: float, weights: tuple[float, float]) -> float:
    w_explore, w_exploit = weights
    return w_explore * math.tanh(d0) + w_exploit * math.tanh(d1)


def shape_advantage(a0: float, phi: float, kappa: float) -> float:
    """Add phi as a non-negative bonus clipped at |a0|/kappa."""
    require_positive_finite("kappa", kappa)
    a_hat = a0 + min(max(0.0, phi), abs(a0) / kappa)
    if a0 < 0.0 and kappa > 1.0:
        # At subnormal |a0| the rounded cap can reach |a0|; keep the sign.
        a_hat = min(a_hat, -math.ulp(0.0))
    return a_hat


def grpo_group_advantage(rewards: list[float]) -> list[float]:
    """Z-normalize rewards within a rollout group (population std).

    A degenerate group (all rewards equal) carries no learning signal and
    maps to all-zero advantages instead of dividing by ~0.
    """
    if len(rewards) < 2:
        raise GroupTooSmall(f"GRPO group needs >= 2 rollouts, got {len(rewards)}")
    arr = np.asarray(rewards, dtype=np.float64)
    mean = arr.mean()
    std = arr.std()  # population (divide-by-G) std
    if std < 1e-12:
        return [0.0] * len(rewards)
    return list((arr - mean) / std)


def rule_reward(is_correct: bool, has_boxed: bool) -> float:
    """Correctness/formatting reward: +1.0 / +0.5 / -0.5 / -1.0."""
    if is_correct:
        return 1.0 if has_boxed else 0.5
    return -0.5 if has_boxed else -1.0


def shape_from_metrics(
    m_er: float,
    m_erv: float | None,
    m_era: float | None,
    a0: float,
    state: EmaState,
    config: ShapingConfig,
) -> tuple[ShapingOutcome, EmaState]:
    """Run one shaping step from already-computed scalar metrics.

    EMA baselines are updated in the fixed order er, erv, era for whichever
    metrics are defined. When the velocity or acceleration is absent (short
    trajectory), shaping is skipped entirely and a_hat = a0.
    """
    eps = config.epsilon
    before = state
    for k, m in zip(METRICS, (m_er, m_erv, m_era)):
        if m is not None:
            state = ema_update(state, k, m)
    basis = before if config.pre_update_deviation else state

    d0 = relative_deviation(m_er, basis.baseline("er", m_er), eps)
    if m_erv is None or m_era is None:
        return ShapingOutcome(d0, None, None, None, None, a0, a0), state
    d1 = relative_deviation(m_erv, basis.baseline("erv", m_erv), eps)
    d2 = relative_deviation(m_era, basis.baseline("era", m_era), eps)
    beta, w_explore, w_exploit = dynamic_weights(d2)
    phi = auxiliary_advantage(d0, d1, (w_explore, w_exploit))
    a_hat = shape_advantage(a0, phi, config.kappa)
    return ShapingOutcome(d0, d1, d2, beta, phi, a0, a_hat), state
