import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import (
    EmaState,
    ShapingConfig,
    auxiliary_advantage,
    dynamic_weights,
    ema_update,
    grpo_group_advantage,
    relative_deviation,
    shape_advantage,
    shape_from_metrics,
)
from rankdyn.errors import GroupTooSmall

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def test_relative_deviation():
    assert relative_deviation(2.0, 2.0, 1e-8) == 0.0
    assert relative_deviation(1.5, 1.0, 1e-8) == pytest.approx(0.5, rel=1e-7)
    # negative baseline uses |mu|
    assert relative_deviation(0.5, -1.0, 1e-8) == pytest.approx(1.5, rel=1e-7)


def test_ema_warm_up_and_blend():
    state = EmaState(gamma=0.9)
    state = ema_update(state, "er", 2.0)
    assert state.means["er"] == 2.0
    state = ema_update(state, "er", 3.0)
    assert state.means["er"] == pytest.approx(2.1, rel=1e-12)
    # constant input is a fixed point
    for _ in range(5):
        state2 = ema_update(EmaState(), "erv", 1.5)
    assert state2.means["erv"] == 1.5


def test_ema_geometric_convergence():
    state = EmaState(gamma=0.9)
    state = ema_update(state, "er", 0.0)
    gaps = []
    for _ in range(6):
        state = ema_update(state, "er", 1.0)
        gaps.append(abs(state.means["er"] - 1.0))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(r == pytest.approx(0.9, rel=1e-9) for r in ratios)


def test_ema_literal_zero_init():
    state = EmaState(gamma=0.9, literal_zero_init=True)
    state = ema_update(state, "er", 2.0)
    assert state.means["er"] == pytest.approx(0.2, rel=1e-12)


def test_ema_state_is_immutable():
    state = EmaState()
    with pytest.raises(FrozenInstanceError):
        state.gamma = 0.5
    updated = ema_update(state, "er", 2.0)
    assert state.means["er"] == 0.0 and state.observations["er"] == 0
    assert updated.means["er"] == 2.0 and updated.observations["er"] == 1


def test_ema_update_rejects_an_unknown_metric_or_a_nonfinite_observation():
    with pytest.raises(KeyError, match="unknown metric 'loss'"):
        ema_update(EmaState(), "loss", 1.0)
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError, match="EMA observation must be finite"):
            ema_update(EmaState(), "er", m)


def test_dynamic_weights():
    beta, w0, w1 = dynamic_weights(0.0)
    assert (beta, w0, w1) == (0.5, 0.5, 0.5)
    beta, w0, w1 = dynamic_weights(1.0)
    assert beta == pytest.approx(0.7310585786300049, rel=1e-12)
    assert w0 + w1 == 1.0
    assert dynamic_weights(50.0)[1] == pytest.approx(1.0, abs=1e-12)
    assert dynamic_weights(-50.0)[2] == pytest.approx(1.0, abs=1e-12)
    # past the range of exp(-d2), beta saturates instead of overflowing
    assert dynamic_weights(-880.2) == (0.0, 0.0, 1.0)
    assert dynamic_weights(880.2) == (1.0, 1.0, 0.0)


def test_auxiliary_advantage():
    assert auxiliary_advantage(0.0, 0.0, (0.5, 0.5)) == 0.0
    got = auxiliary_advantage(0.5, -0.2, (0.5, 0.5))
    assert got == pytest.approx(0.13237091851755287, rel=1e-12)
    assert auxiliary_advantage(100.0, 100.0, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_shape_advantage_hand_examples():
    assert shape_advantage(0.7, -0.3, 2.0) == 0.7  # negative phi contributes nothing
    assert shape_advantage(1.0, 0.9, 2.0) == pytest.approx(1.5)
    assert shape_advantage(-0.6, 0.2, 2.0) == pytest.approx(-0.4)
    assert shape_advantage(0.0, 0.9, 2.0) == 0.0
    # the smallest subnormal: its rounded cap |a0|/kappa equals |a0|
    assert shape_advantage(-5e-324, 1.0, 1.5) == -5e-324
    assert shape_advantage(-1e-323, 1.0, 1.1) == -5e-324
    # a negative a0 stays negative only for kappa > 1: at 1 it can reach 0, below 1 flip
    assert shape_advantage(-0.3, 0.9, 2.0) == -0.15
    assert shape_advantage(-0.3, 0.9, 1.0) == 0.0
    assert shape_advantage(-0.3, 0.9, 0.5) == 0.3


@settings(max_examples=300, deadline=None)
@given(a0=finite, phi=st.floats(-1.0, 1.0), kappa=st.floats(1.0, 10.0))
def test_shaping_bounds_property(a0, phi, kappa):
    a_hat = shape_advantage(a0, phi, kappa)
    bonus = a_hat - a0
    assert 0.0 <= bonus <= abs(a0) / kappa + 1e-15
    if a0 > 0.0:
        assert a_hat > 0.0
    elif a0 < 0.0:
        # at kappa == 1 exactly, the bonus may cancel a0 to zero but never flips it
        assert a_hat <= 0.0
        if kappa > 1.0:
            assert a_hat < 0.0


def test_grpo_group_advantage():
    assert grpo_group_advantage([1.0, 1.0, 1.0]) == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(
        grpo_group_advantage([1.0, -1.0, 1.0, -1.0]), [1.0, -1.0, 1.0, -1.0]
    )
    rewards = [1.0, 0.5, -0.5, -1.0]
    got = np.array(grpo_group_advantage(rewards))
    # two-pass oracle with population std
    arr = np.array(rewards)
    mean = sum(rewards) / 4
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / 4)
    np.testing.assert_allclose(got, (arr - mean) / std, atol=1e-12)
    assert abs(got.mean()) < 1e-10
    assert abs(got.std() - 1.0) < 1e-10
    with pytest.raises(GroupTooSmall):
        grpo_group_advantage([1.0])


def test_shaping_config_holds_only_shaping_settings():
    # Stride, centering and engine are arguments of trajectory_metrics.
    assert [f.name for f in fields(ShapingConfig)] == ["kappa", "epsilon", "pre_update_deviation"]
    with pytest.raises(TypeError):
        ShapingConfig(stride=8)


@pytest.mark.parametrize("field", ["kappa", "epsilon"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
def test_shaping_config_rejects_nonpositive_or_nonfinite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        ShapingConfig(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "call, name",
    [(lambda v: shape_advantage(1.0, 0.9, v), "kappa"),
     (lambda v: relative_deviation(1.0, 0.0, v), "epsilon")],
    ids=["shape_advantage", "relative_deviation"],
)
def test_shaping_functions_reject_nonpositive_or_nonfinite(call, name, value):
    # shape_advantage(1.0, 0.9, nan) used to return 1.9, past the |a0|/kappa clip
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        call(value)


def test_first_trajectory_is_neutral():
    config = ShapingConfig()
    outcome, state = shape_from_metrics(10.0, 1.0, 0.5, 0.8, EmaState(), config)
    assert outcome.d0 == 0.0 and outcome.d1 == 0.0 and outcome.d2 == 0.0
    assert outcome.beta == 0.5
    assert outcome.phi == 0.0
    assert outcome.a_hat == 0.8
    assert state.means == {"er": 10.0, "erv": 1.0, "era": 0.5}


def test_short_trajectory_skips_shaping():
    config = ShapingConfig()
    outcome, state = shape_from_metrics(10.0, 1.0, None, 0.8, EmaState(), config)
    assert not outcome.shaped
    assert outcome.a_hat == outcome.a0 == 0.8
    assert outcome.d1 is None and outcome.d2 is None and outcome.beta is None
    # metrics that do exist still feed the EMA
    assert state.means["er"] == 10.0 and state.means["erv"] == 1.0
    assert state.observations["era"] == 0


def test_failed_rollout_is_an_unshaped_outcome():
    state = EmaState()
    outcome, after = shape_from_metrics(None, None, None, -0.8, state, ShapingConfig())
    assert (outcome.d0, outcome.d1, outcome.d2, outcome.beta, outcome.phi) == (None,) * 5
    assert outcome.a_hat == outcome.a0 == -0.8
    assert after is state


def test_shape_trajectory_end_to_end():
    from rankdyn import trajectory_metrics
    from rankdyn.verify import hard_fixture

    config = ShapingConfig()
    state = EmaState()
    for seed, a0 in [(0, 0.5), (1, -0.5)]:
        matrix = hard_fixture("gaussian", 96, 8, seed)
        final_er, series = trajectory_metrics(matrix, 8)
        outcome, state = shape_from_metrics(
            final_er, series.velocity, series.acceleration, a0, state, config
        )
        assert outcome.shaped
        assert outcome.a0 == a0
        assert 0.0 <= outcome.a_hat - a0 <= abs(a0) / config.kappa
    assert state.observations == {"er": 2, "erv": 2, "era": 2}


def test_ema_sequence_determinism():
    config = ShapingConfig()
    metrics = [(10.0, 1.0, 0.5), (12.0, 1.4, 0.7), (9.0, 0.2, -0.1)]

    def run():
        state = EmaState()
        trace = []
        for m_er, m_erv, m_era in metrics:
            out, state = shape_from_metrics(m_er, m_erv, m_era, 1.0, state, config)
            trace.append((out.a_hat, dict(state.means)))
        return trace

    assert run() == run()


EPS = ShapingConfig().epsilon


@pytest.mark.parametrize(
    "pre_update, expected_d",
    [
        # against the updated baselines: 0.1 * (10, 1, 0.5), then
        # 0.9 * (1, 0.1, 0.05) + 0.1 * (12, 1.4, 0.7) = (2.1, 0.23, 0.115)
        (False, [(9 / (1 + EPS), 0.9 / (0.1 + EPS), 0.45 / (0.05 + EPS)),
                 (9.9 / (2.1 + EPS), 1.17 / (0.23 + EPS), 0.585 / (0.115 + EPS))]),
        # against the baselines before each update: 0, then (1, 0.1, 0.05)
        (True, [(10 / EPS, 1 / EPS, 0.5 / EPS),
                (11 / (1 + EPS), 1.3 / (0.1 + EPS), 0.65 / (0.05 + EPS))]),
    ],
    ids=["post-update", "pre-update"],
)
def test_literal_zero_init_two_rollout_trace(pre_update, expected_d):
    config = ShapingConfig(kappa=2.0, pre_update_deviation=pre_update)
    state = EmaState(gamma=0.9, literal_zero_init=True)
    rollouts = [((10.0, 1.0, 0.5), 0.8, 1.2), ((12.0, 1.4, 0.7), -0.4, -0.2)]
    for (metrics, a0, a_hat), (d0, d1, d2) in zip(rollouts, expected_d):
        out, state = shape_from_metrics(*metrics, a0, state, config)
        assert (out.d0, out.d1, out.d2) == pytest.approx((d0, d1, d2), rel=1e-9)
        beta = 1.0 / (1.0 + math.exp(-d2))
        assert out.beta == pytest.approx(beta, rel=1e-12)
        phi = beta * math.tanh(d0) + (1.0 - beta) * math.tanh(d1)
        assert out.phi == pytest.approx(phi, rel=1e-12)
        assert out.a_hat == pytest.approx(a_hat, abs=1e-12)  # bonus clipped at |a0| / 2
    assert state.means == pytest.approx({"er": 2.1, "erv": 0.23, "era": 0.115}, abs=1e-12)


def test_era_baseline_near_zero_saturates_beta():
    # The second ERA cancels the blended baseline to ~0, so
    # d2 ~ -9e-6 / eps = -900, past the range of exp(-d2).
    config = ShapingConfig()
    _, state = shape_from_metrics(10.0, 1.0, 1e-6, 0.5, EmaState(), config)
    out, state = shape_from_metrics(10.0, 1.0, -9e-6, 0.5, state, config)
    assert out.d2 == pytest.approx(-900.0, rel=1e-6)
    assert (out.beta, out.phi, out.a_hat) == (0.0, 0.0, 0.5)
