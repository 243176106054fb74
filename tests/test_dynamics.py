import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import (
    Engine,
    HiddenStateMatrix,
    first_order_difference,
    prefix_metric_series,
    second_order_difference,
    trajectory_metrics,
)
from rankdyn.dynamics import eval_steps, instantaneous_deltas, series_from_values
from rankdyn.errors import DegenerateMatrix, SeriesTooShort, TrajectoryTooShort
from rankdyn.spectral import Centering
from rankdyn.verify import FIXTURES, engine_drift, hard_fixture, prefix_svd_oracle


def test_eval_step_arithmetic():
    assert eval_steps(121, 40) == [40, 80, 120]
    assert eval_steps(120, 40) == [40, 80]
    assert eval_steps(41, 40) == [40]
    with pytest.raises(TrajectoryTooShort):
        eval_steps(40, 40)
    # a centered prefix needs two rows: only stride 1 moves its first step
    assert eval_steps(5, 1, Centering.ROW_MEAN_CENTERED) == [2, 3, 4]
    assert eval_steps(121, 40, Centering.ROW_MEAN_CENTERED) == [40, 80, 120]
    assert eval_steps(3, 2, Centering.ROW_MEAN_CENTERED) == [2]
    with pytest.raises(TrajectoryTooShort):
        eval_steps(2, 1, Centering.ROW_MEAN_CENTERED)


def test_deltas_by_recomputation():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(12)
    deltas = instantaneous_deltas(values)
    for j in range(2, 13):
        expected = values[j - 1] - values[: j - 1].mean()
        assert abs(deltas[j - 2] - expected) < 1e-10


def test_first_order_hand_example():
    deltas = instantaneous_deltas(np.array([2.0, 3.0, 5.0]))
    np.testing.assert_allclose(deltas, [1.0, 2.5])
    assert first_order_difference(np.array([2.0, 3.0, 5.0])) == pytest.approx(1.75)


def test_second_order_hand_example():
    m = np.array([2.0, 3.0, 5.0, 6.0])
    deltas = instantaneous_deltas(m)
    np.testing.assert_allclose(deltas, [1.0, 2.5, 8.0 / 3.0])
    assert second_order_difference(m) == pytest.approx(5.0 / 6.0)


def test_constant_series_is_flat():
    m = np.full(8, 3.7)
    assert first_order_difference(m) == pytest.approx(0.0, abs=1e-15)
    assert second_order_difference(m) == pytest.approx(0.0, abs=1e-15)


def test_series_too_short():
    with pytest.raises(SeriesTooShort):
        first_order_difference(np.array([1.0]))
    with pytest.raises(SeriesTooShort):
        second_order_difference(np.array([1.0, 2.0]))


def test_definedness_rules():
    one = series_from_values(np.array([1.0]), [1], 2.0)
    assert instantaneous_deltas(one.prefix_values).size == 0
    assert one.velocity is None and one.acceleration is None
    two = series_from_values(np.array([1.0, 2.0]), [1, 2], 3.0)
    assert two.velocity is not None and two.acceleration is None
    three = series_from_values(np.array([1.0, 2.0, 4.0]), [1, 2, 3], 5.0)
    assert three.velocity is not None and three.acceleration is not None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    offset=st.floats(-50.0, 50.0),
    size=st.integers(3, 20),
)
def test_constant_offset_invariance(seed, offset, size):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(size)
    assert abs(
        first_order_difference(m + offset) - first_order_difference(m)
    ) < 1e-10
    assert abs(
        second_order_difference(m + offset) - second_order_difference(m)
    ) < 1e-10


def test_constant_metric_trajectory():
    # every prefix of a rank-1 constant-row matrix has the same spectrum shape
    data = np.tile(np.array([[1.0, 2.0, 3.0]]), (12, 1))
    series = prefix_metric_series(HiddenStateMatrix(data), stride=2)
    np.testing.assert_allclose(series.prefix_values, 1.0)
    np.testing.assert_allclose(instantaneous_deltas(series.prefix_values), 0.0, atol=1e-12)
    assert series.velocity == pytest.approx(0.0, abs=1e-12)
    assert series.acceleration == pytest.approx(0.0, abs=1e-12)


def test_engines_agree_on_random_trajectory():
    rng = np.random.default_rng(9)
    matrix = HiddenStateMatrix(rng.standard_normal((64, 8)))
    naive = prefix_metric_series(matrix, 8, engine=Engine.FACTOR)
    incr = prefix_metric_series(matrix, 8, engine=Engine.INCREMENTAL_GRAM)
    np.testing.assert_allclose(incr.prefix_values, naive.prefix_values, rtol=1e-8)
    assert incr.velocity == pytest.approx(naive.velocity, rel=1e-7)


def test_final_metric_covers_trailing_tokens():
    rng = np.random.default_rng(4)
    matrix = HiddenStateMatrix(rng.standard_normal((50, 6)))
    final_er, series = trajectory_metrics(matrix, stride=40)
    assert series.eval_steps == (40,)
    # the final metric is computed on all 50 rows, not the 40-row prefix
    assert final_er != pytest.approx(series.prefix_values[0])


# (T, D, stride): T < D, T = D and T > D; prefixes that cross D; stride 1;
# strides that divide T; T > D with every prefix at most D (only the final
# metric streams), and with every prefix longer than D.
ORACLE_SHAPES = [
    (17, 24, 1), (17, 24, 4), (24, 24, 1), (24, 24, 4), (61, 24, 5), (64, 24, 1),
    (64, 24, 8), (26, 24, 8), (61, 24, 30),
]
ORACLE_CASES = [
    (shape, centering)
    for shape in ORACLE_SHAPES
    for centering in Centering
    if shape[2] > 1 or centering is Centering.RAW
] + [(shape, Centering.ROW_MEAN_CENTERED) for shape in ORACLE_SHAPES if shape[2] == 1]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("shape,centering", ORACLE_CASES)
def test_factor_engine_matches_svd_oracle(fixture, shape, centering):
    rows, dims, stride = shape
    matrix = hard_fixture(fixture, rows, dims, seed=rows + dims + stride)
    assert engine_drift(matrix, stride, centering, Engine.FACTOR) <= 1e-12
    series = prefix_metric_series(matrix, stride, centering)
    *oracle, final = prefix_svd_oracle(matrix, stride, centering)
    expected = series_from_values(oracle, eval_steps(rows, stride, centering), final)
    assert series.eval_steps == expected.eval_steps
    scale = max(oracle)
    pairs = [(series.velocity, expected.velocity), (series.acceleration, expected.acceleration)]
    for got, want in pairs:
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-10 * scale


def test_factor_engine_errors():
    matrix = hard_fixture("gaussian", 30, 8, seed=0)
    with pytest.raises(TrajectoryTooShort):
        trajectory_metrics(matrix, stride=30)
    for engine in Engine:  # no one-row centered prefix, so no TooFewRows on either engine
        series = prefix_metric_series(matrix, 1, Centering.ROW_MEAN_CENTERED, engine)
        assert series.eval_steps[:2] == (2, 3)
        for rows in (6, 30):  # T <= D and T > D
            zeros = HiddenStateMatrix(np.zeros((rows, 8)))
            for centering in Centering:
                with pytest.raises(DegenerateMatrix):
                    trajectory_metrics(zeros, 2, centering, engine)
