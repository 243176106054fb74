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
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DEFAULT_STRIDE, Engine
from .errors import GroupTooSmall
from .spectral import Centering

METRICS = ("er", "erv", "era")


@dataclass
class EmaState:
    """Per-metric exponential moving averages with warm-up tracking.

    By default the first observation seeds the baseline (so the first
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

    def warmed(self, metric: str) -> bool:
        return self.observations[metric] > 0

    def copy(self) -> "EmaState":
        return EmaState(
            gamma=self.gamma,
            literal_zero_init=self.literal_zero_init,
            means=dict(self.means),
            observations=dict(self.observations),
        )


def ema_update(state: EmaState, metric: str, m: float) -> EmaState:
    """Blend one observation into the baseline of the given metric."""
    if metric not in METRICS:
        raise KeyError(f"unknown metric {metric!r}")
    if not math.isfinite(m):
        raise ValueError("EMA observation must be finite")
    new = state.copy()
    if new.observations[metric] == 0 and not new.literal_zero_init:
        new.means[metric] = m
    else:
        new.means[metric] = new.gamma * new.means[metric] + (1.0 - new.gamma) * m
    new.observations[metric] += 1
    return new


@dataclass(frozen=True)
class ShapingConfig:
    """Shaping settings; the EMA's gamma and zero-init flag live on EmaState."""

    kappa: float = 2.0
    epsilon: float = 1e-8
    stride: int = DEFAULT_STRIDE
    centering: Centering = Centering.RAW
    engine: Engine = Engine.FACTOR
    pre_update_deviation: bool = False

    def __post_init__(self):
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be positive and finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return (m - mu) / (abs(mu) + epsilon)


def dynamic_weights(d2: float) -> tuple[float, float, float]:
    """(beta, exploration coeff, exploitation coeff) from the d2 signal."""
    beta = 1.0 / (1.0 + math.exp(-d2))
    return beta, beta, 1.0 - beta


def auxiliary_advantage(d0: float, d1: float, weights: tuple[float, float]) -> float:
    w_explore, w_exploit = weights
    return w_explore * math.tanh(d0) + w_exploit * math.tanh(d1)


def shape_advantage(a0: float, phi: float, kappa: float) -> float:
    """Add phi as a non-negative bonus clipped at |a0|/kappa."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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
    observed = {"er": m_er, "erv": m_erv, "era": m_era}
    pre_means = {
        k: (state.means[k] if state.warmed(k) or state.literal_zero_init else observed[k])
        for k in METRICS
        if observed[k] is not None
    }
    for k in METRICS:
        if observed[k] is not None:
            state = ema_update(state, k, observed[k])
    if config.pre_update_deviation:
        baseline = pre_means
    else:
        baseline = {k: state.means[k] for k in pre_means}

    d0 = relative_deviation(m_er, baseline["er"], eps)
    if m_erv is None or m_era is None:
        return (
            ShapingOutcome(d0, None, None, None, None, a0, a0),
            state,
        )
    d1 = relative_deviation(m_erv, baseline["erv"], eps)
    d2 = relative_deviation(m_era, baseline["era"], eps)
    beta, w_explore, w_exploit = dynamic_weights(d2)
    phi = auxiliary_advantage(d0, d1, (w_explore, w_exploit))
    a_hat = shape_advantage(a0, phi, config.kappa)
    return (
        ShapingOutcome(d0, d1, d2, beta, phi, a0, a_hat),
        state,
    )
