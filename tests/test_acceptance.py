"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria 1-4 and 6 run the `rankdyn verify` suites themselves
(`rankdyn.verify.SUITES`) at fixed seeds, within a time limit.
"""

import math
import statistics
import time

import numpy as np
import pytest

from rankdyn import (
    EmaState,
    Engine,
    ShapingConfig,
    auxiliary_advantage,
    dynamic_weights,
    grpo_group_advantage,
    prefix_metric_series,
    rule_reward,
    shape_from_metrics,
)
from rankdyn.verify import SUITES, hard_fixture, prefix_spectra
from test_cli import run_cli  # the CLI in a child process, with a timeout


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def suite(name, seed, seconds=math.inf):
    """Run one `rankdyn verify` suite at seed within `seconds`; return its detail."""
    start = time.perf_counter()
    passed, detail = SUITES[name](seed)
    assert passed, detail
    assert time.perf_counter() - start < seconds
    return detail


def test_01_rank_bound_theorem():
    suite("rank-bounds", 2024, seconds=30.0)
    report("1 (rank bound theorem, 1000 matrices)")


def test_02_scaling_orders():
    detail = suite("scaling", 0, seconds=120.0)
    report(f"2 (scaling orders, {detail})")


def test_03_closed_form_differences():
    suite("closed-forms", 0)
    report("3 (closed-form velocity/acceleration)")


def test_04_engine_equivalence():
    suite("engine-equivalence", 7, seconds=180.0)
    report("4 (engine equivalence, 200 trajectories)")


def median_seconds(*runs, repeats=5):
    """Median seconds of each run over `repeats` rounds, the runs taking turns
    within a round, after one warm-up call each."""
    for run in runs:
        run()
    times = [[] for _ in runs]
    for _ in range(repeats):
        for run, seconds in zip(runs, times):
            start = time.perf_counter()
            run()
            seconds.append(time.perf_counter() - start)
    return [statistics.median(seconds) for seconds in times]


def linear_fit_r2(sizes, seconds):
    """R^2 of a least-squares fit seconds ~ a*T + b."""
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(seconds, dtype=np.float64)
    resid = y - np.polyval(np.polyfit(x, y, 1), x)
    total = y - y.mean()
    return 1.0 - float(resid @ resid) / float(total @ total)


def test_05_construction_complexity():
    # The incremental engine against the per-prefix SVD: past D it folds each
    # chunk into a D-by-D scatter, so its time is linear in T.
    start = time.perf_counter()
    sizes = [512, 1024, 2048]
    stride = 32
    matrices = [hard_fixture("gaussian", t, 256, 0) for t in sizes]
    runs = [
        lambda m=m: prefix_metric_series(m, stride, engine=Engine.INCREMENTAL_GRAM)
        for m in matrices
    ]
    # The sizes and the oracle take turns in every round, so a change in load hits all four.
    *seconds, oracle = median_seconds(*runs, lambda: prefix_spectra(matrices[-1], stride))
    speedup = oracle / seconds[-1]
    assert speedup >= 5.0
    r2 = linear_fit_r2(sizes, seconds)
    assert r2 >= 0.95
    assert time.perf_counter() - start < 300.0
    report(f"5 (complexity: {speedup:.1f}x the per-prefix SVD at T=2048, linear R^2={r2:.4f})")


def test_06_shaping_contract():
    suite("shaping", 11, seconds=10.0)
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
            assert abs(f - a) <= min(1e-6, 1e-4 * max(abs(a), 1e-12))
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
        # mu <- 0.9*mu + 0.1*m in both orderings; d is taken against the
        # updated baselines, or with pre_update against (10, 1, 0.5).
        assert state.means["er"] == pytest.approx(10.2, abs=1e-12)
        assert state.means["erv"] == pytest.approx(1.04, abs=1e-12)
        assert state.means["era"] == pytest.approx(0.52, abs=1e-12)
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
    from rankdyn import write_matrix

    lines = []
    for i in range(8):
        path = tmp_path / f"t{i}.hsmx"
        write_matrix(hard_fixture("gaussian", 120, 12, i), path)
        lines.append(f"{path},g{i // 4},{i % 2},{(i // 2) % 2}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines))
    args = ["shape", "--manifest", str(manifest), "--stride", "8"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    report("10 (byte-identical shape runs)")
