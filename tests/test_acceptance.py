"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; the same checks back the `rankdyn verify` CLI suites.
"""

import math
import time

import numpy as np
import pytest

from rankdyn import (
    EmaState,
    Engine,
    HiddenStateMatrix,
    OrthogonalRows,
    ShapingConfig,
    auxiliary_advantage,
    dynamic_weights,
    first_order_difference,
    generate_synthetic,
    grpo_group_advantage,
    prefix_metric_series,
    rule_reward,
    second_order_difference,
    shape_advantage,
    shape_from_metrics,
    spectral_summary,
)
from rankdyn.bench import quadratic_fit_r2, run_grid
from test_cli import run_cli  # the CLI in a child process, with a timeout


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_01_rank_bound_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(1000):
        t = int(rng.integers(2, 129))
        d = int(rng.integers(2, 65))
        if i % 10 == 0:
            k = int(rng.integers(1, min(t, d) + 1))
            matrix = generate_synthetic(OrthogonalRows(k, d), int(rng.integers(2**31)))
        else:
            matrix = HiddenStateMatrix(rng.standard_normal((t, d)))
        s = spectral_summary(matrix)
        assert 1.0 - 1e-12 <= s.effective_rank
        assert s.effective_rank <= s.conventional_rank * (1 + 1e-12)
        assert s.conventional_rank <= min(matrix.rows, matrix.cols)
        sig = s.singular_values
        uniform = (sig.max() - sig.min()) <= 1e-9 * sig.max()
        if uniform:
            assert abs(s.effective_rank - s.conventional_rank) <= 1e-9 * s.conventional_rank
        else:
            assert s.effective_rank < s.conventional_rank
    assert time.perf_counter() - start < 30.0
    report("1 (rank bound theorem, 1000 matrices)")


def test_02_scaling_orders():
    start = time.perf_counter()
    ks = [8, 16, 32, 64, 128]
    velocities = []
    for k in ks:
        matrix = generate_synthetic(OrthogonalRows(k, max(2 * k, 16)), seed=k)
        assert abs(spectral_summary(matrix).effective_rank - k) <= 0.01 * k
        series = prefix_metric_series(matrix, stride=1)
        velocities.append(series.velocity)
        assert 0.45 <= series.acceleration <= 0.55
    slope = np.polyfit(ks, velocities, 1)[0]
    assert 0.2 <= slope <= 0.3
    assert time.perf_counter() - start < 120.0
    report(f"2 (scaling orders, velocity slope {slope:.4f})")


def test_03_closed_form_differences():
    for n in (3, 10, 100, 1000):
        series = np.arange(1, n + 1, dtype=np.float64)
        assert first_order_difference(series) == pytest.approx((n + 2) / 4, rel=1e-13)
        assert second_order_difference(series) == pytest.approx(0.5, rel=1e-13)
    report("3 (closed-form velocity/acceleration)")


def test_04_engine_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    strides = (1, 8, 40)
    for i in range(200):
        stride = strides[i % 3]
        t = int(rng.integers(max(stride + 2, 8), 257))
        d = int(rng.integers(2, 65))
        matrix = HiddenStateMatrix(rng.standard_normal((t, d)))
        naive = prefix_metric_series(matrix, stride, engine=Engine.FACTOR)
        incr = prefix_metric_series(matrix, stride, engine=Engine.INCREMENTAL_GRAM)
        rel = np.abs(incr.prefix_values - naive.prefix_values) / np.abs(naive.prefix_values)
        assert np.max(rel) <= 1e-8
    assert time.perf_counter() - start < 180.0
    report("4 (engine equivalence, 200 trajectories)")


def test_05_construction_complexity():
    start = time.perf_counter()
    sizes = [512, 1024, 2048]
    results = run_grid(sizes, dims=256, stride=32, repeats=5, seed=0)
    speedup = results[-1].naive_seconds / results[-1].incremental_seconds
    assert speedup >= 5.0
    r2 = quadratic_fit_r2(sizes, [r.incremental_seconds for r in results])
    assert r2 >= 0.95
    assert time.perf_counter() - start < 300.0
    report(f"5 (complexity: {speedup:.1f}x at T=2048, quadratic R^2={r2:.3f})")


def test_06_shaping_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    a0s = rng.standard_normal(100_000) * 3.0
    phis = rng.uniform(-2.0, 2.0, 100_000)
    kappas = rng.uniform(1.0, 5.0, 100_000)
    for a0, phi, kappa in zip(a0s, phis, kappas):
        a_hat = shape_advantage(a0, phi, kappa)
        bonus = a_hat - a0
        assert 0.0 <= bonus <= abs(a0) / kappa + 1e-15
        if a0 > 0:
            assert a_hat > 0
        elif a0 < 0:
            assert a_hat <= 0
    for d2 in rng.standard_normal(2000) * 5.0:
        beta, w0, w1 = dynamic_weights(float(d2))
        assert 0.0 < beta < 1.0
        assert w0 + w1 == 1.0
        phi = auxiliary_advantage(float(rng.standard_normal()), float(rng.standard_normal()), (w0, w1))
        assert abs(phi) < 1.0
    grid = np.linspace(-2.0, 2.0, 101)
    for a0 in (-1.0, 0.0, 0.4):
        shaped = [shape_advantage(a0, p, 2.0) for p in grid]
        assert all(b >= a for a, b in zip(shaped, shaped[1:]))
    assert time.perf_counter() - start < 10.0
    report("6 (shaping contract, 1e5 samples)")


def test_07_gradient_checks():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(100):
        d0, d1, d2 = rng.standard_normal(3) * 2.0
        beta, w0, w1 = dynamic_weights(d2)
        analytic = (w0 / math.cosh(d0) ** 2, w1 / math.cosh(d1) ** 2, beta * (1 - beta))
        fd = (
            (auxiliary_advantage(d0 + h, d1, (w0, w1)) - auxiliary_advantage(d0 - h, d1, (w0, w1))) / (2 * h),
            (auxiliary_advantage(d0, d1 + h, (w0, w1)) - auxiliary_advantage(d0, d1 - h, (w0, w1))) / (2 * h),
            (dynamic_weights(d2 + h)[0] - dynamic_weights(d2 - h)[0]) / (2 * h),
        )
        for a, f in zip(analytic, fd):
            assert abs(f - a) <= 1e-4 * max(abs(a), 1e-12)
        assert analytic[2] > 0  # beta strictly increasing in d2
    report("7 (gradient checks at 100 points)")


def test_08_two_trajectory_trace_fidelity():
    # scripted metrics, gamma = 0.9, kappa = 2, under both deviation orderings
    for pre_update, expected in [
        (
            False,
            dict(
                d0=0.1764705880622838,
                d1=0.3461538428254437,
                d2=0.34615383949704137,
                beta=0.5856845853424199,
                phi=0.2402469328086138,
            ),
        ),
        (
            True,
            dict(
                d0=0.1999999998,
                d1=0.39999999599999997,
                d2=0.399999992,
                beta=0.5986876581903661,
                phi=0.27064437457221935,
            ),
        ),
    ]:
        config = ShapingConfig(kappa=2.0, epsilon=1e-8, pre_update_deviation=pre_update)
        state = EmaState(gamma=0.9)
        out1, state = shape_from_metrics(10.0, 1.0, 0.5, 0.8, state, config)
        assert out1.d0 == 0.0 and out1.phi == 0.0 and out1.a_hat == 0.8
        assert state.means == {"er": 10.0, "erv": 1.0, "era": 0.5}
        out2, state = shape_from_metrics(12.0, 1.4, 0.7, -0.4, state, config)
        assert state.means["er"] == pytest.approx(10.2, abs=1e-10)
        assert state.means["erv"] == pytest.approx(1.04, abs=1e-10)
        assert state.means["era"] == pytest.approx(0.52, abs=1e-10)
        for key, value in expected.items():
            assert getattr(out2, key) == pytest.approx(value, abs=1e-10)
        assert out2.a_hat == pytest.approx(-0.2, abs=1e-10)  # bonus clipped at 0.2
    report("8 (two-trajectory trace, both orderings)")


def test_09_grpo_and_reward_fidelity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rewards = list(rng.standard_normal(int(rng.integers(2, 9))))
        adv = np.array(grpo_group_advantage(rewards))
        assert abs(adv.mean()) < 1e-10
        assert abs(adv.std() - 1.0) < 1e-10
    assert rule_reward(True, True) == 1.0
    assert rule_reward(True, False) == 0.5
    assert rule_reward(False, True) == -0.5
    assert rule_reward(False, False) == -1.0
    report("9 (GRPO normalization and reward table)")


def test_10_shape_determinism(tmp_path):
    from rankdyn import GaussianIID, write_matrix

    lines = []
    for i in range(8):
        path = tmp_path / f"t{i}.hsmx"
        write_matrix(generate_synthetic(GaussianIID(120, 12), seed=i), path)
        lines.append(f"{path},g{i // 4},{i % 2},{(i // 2) % 2}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines))
    args = ["shape", "--manifest", str(manifest), "--stride", "8"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    report("10 (byte-identical shape runs)")
