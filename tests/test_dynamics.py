import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn import (
    Engine,
    HiddenStateMatrix,
    differences,
    effective_rank,
    prefix_metric_series,
    trajectory_metrics,
)
from rankdyn import dynamics, lapack, verify
from rankdyn.dynamics import eval_steps, prefix_eranks, walk_flops
from rankdyn.errors import DegenerateMatrix, NonFiniteValue, TrajectoryTooShort
from rankdyn.spectral import Centering
from rankdyn.verify import FIXTURES, engine_drifts, hard_fixture, prefix_spectra


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


def loop_differences(values):
    """ERV and ERA recomputed from the definition, one delta at a time."""
    deltas = [values[j] - sum(values[:j]) / j for j in range(1, len(values))]
    velocity = sum(deltas) / len(deltas) if len(deltas) >= 1 else None
    steps = [b - a for a, b in zip(deltas, deltas[1:])]
    acceleration = sum(steps) / len(steps) if len(steps) >= 1 else None
    return velocity, acceleration


@pytest.mark.parametrize("k", range(7))
def test_differences_match_a_loop(k):
    values = np.random.default_rng(k).standard_normal(k)
    got = differences(values)
    want = loop_differences(list(values))
    assert [g is None for g in got] == [w is None for w in want] == [k < 2, k < 3]
    for g, w in zip(got, want):
        if w is not None:
            assert type(g) is float and abs(g - w) < 1e-12
    if k >= 3:
        # ERA telescopes to (delta_K - delta_2) / (K - 2), so it reads m_1, m_2,
        # m_K and only the mean of the values between.
        deltas = [values[j] - values[:j].mean() for j in range(1, k)]
        assert abs(got[1] - (deltas[-1] - deltas[0]) / (k - 2)) < 1e-12
        middle_reversed = np.concatenate([values[:2], values[2:-1][::-1], values[-1:]])
        assert abs(differences(middle_reversed)[1] - got[1]) < 1e-12


def test_first_order_hand_example():
    # deltas [1, 2.5]
    assert differences([2.0, 3.0, 5.0])[0] == pytest.approx(1.75)


def test_second_order_hand_example():
    # deltas [1, 2.5, 8/3]
    assert differences([2.0, 3.0, 5.0, 6.0])[1] == pytest.approx(5.0 / 6.0)
    # deltas [1, 2.5, 14/3]
    assert differences([1.0, 2.0, 4.0, 7.0])[1] == pytest.approx(11.0 / 6.0)


def test_constant_series_is_flat():
    velocity, acceleration = differences(np.full(8, 3.7))
    assert velocity == pytest.approx(0.0, abs=1e-15)
    assert acceleration == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    offset=st.floats(-50.0, 50.0),
    size=st.integers(3, 20),
)
def test_constant_offset_invariance(seed, offset, size):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(size)
    for shifted, plain in zip(differences(m + offset), differences(m)):
        assert abs(shifted - plain) < 1e-10


def test_constant_metric_trajectory():
    # every prefix of a rank-1 constant-row matrix has the same spectrum shape
    data = np.tile(np.array([[1.0, 2.0, 3.0]]), (12, 1))
    series = prefix_metric_series(HiddenStateMatrix(data), stride=2)
    np.testing.assert_allclose(series.prefix_values, 1.0)
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


@pytest.mark.parametrize("engine", Engine)
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("rows,dims,stride", [(30, 40, 1), (60, 12, 1), (61, 24, 5)])
def test_solve_ranges_keep_the_bits(engine, centering, rows, dims, stride):
    # The metric phase joins a split trajectory's ranges: each range walks the
    # same blocks, so its ERs are the whole walk's, bit for bit.
    matrix = hard_fixture("power-law", rows, dims, seed=rows)
    whole = prefix_eranks(matrix, stride, centering, engine)
    cuts = [0, 1, len(whole) // 2, len(whole) - 1, len(whole)]
    ranges = [prefix_eranks(matrix, stride, centering, engine, slice(a, b))
              for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(ranges).tobytes() == whole.tobytes()


@pytest.mark.parametrize("engine", Engine)
def test_a_stepped_solve_range_is_refused(engine):
    # A step would pick every second end, and the walk solves contiguous
    # ranges only; an empty range solves nothing.
    matrix = hard_fixture("gaussian", 100, 8, seed=0)
    with pytest.raises(ValueError, match="step 1, not 2"):
        prefix_eranks(matrix, 10, Centering.RAW, engine, slice(None, None, 2))
    whole = prefix_eranks(matrix, 10, Centering.RAW, engine, slice(None, None, 1))
    assert whole.size == len(eval_steps(100, 10)) + 1
    for empty in (slice(3, 3), slice(5, 2), slice(whole.size, None)):
        assert prefix_eranks(matrix, 10, Centering.RAW, engine, empty).shape == (0,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("engine", Engine)
@pytest.mark.parametrize("centering", Centering)
def test_the_walk_reads_any_real_rows_as_their_float64_copy(engine, centering):
    # HiddenStateMatrix converts its rows once to a C-contiguous float64 array
    # and keeps their peak |value|, so each input gets the ERs of that copy, bit
    # for bit. The ends lie on both sides of D = 24; the massive-activation
    # columns make a float32 walk drift most.
    rows = hard_fixture("massive", 61, 48, seed=61).data[:, ::2]
    inputs = {
        "float32": rows.astype(np.float32),
        "fortran": np.asfortranarray(rows),
        "strided": rows,
        "int64": np.rint(rows * 100).astype(np.int64),
    }
    for name, data in inputs.items():
        copy = np.ascontiguousarray(data, np.float64)
        matrix = HiddenStateMatrix(data)
        assert matrix.data.dtype == np.float64 and matrix.data.flags.c_contiguous, name
        assert matrix.data.tobytes() == copy.tobytes(), name
        assert matrix.peak == np.abs(matrix.data).max(), name
        want = prefix_eranks(HiddenStateMatrix(copy), 5, centering, engine)
        assert prefix_eranks(matrix, 5, centering, engine).tobytes() == want.tobytes(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernels", ["lapack", "numpy"])
@pytest.mark.parametrize("engine", Engine)
@pytest.mark.parametrize("centering", Centering)
def test_the_walk_refuses_nonfinite_rows_and_strides_with_no_end(
    monkeypatch, kernels, engine, centering
):
    # One error per fault on every engine and kernel path: a NaN or infinite
    # value, a stride below 1, and a stride that leaves no end before T.
    if kernels == "numpy":
        monkeypatch.setattr(lapack, "qr_kernels", lambda: None)
        monkeypatch.setattr(lapack, "eig_kernel", lambda: None)
    data = hard_fixture("gaussian", 30, 8, seed=0).data
    for value in (np.nan, np.inf, -np.inf):
        bad = data.copy()
        bad[12, 3] = value
        with pytest.raises(NonFiniteValue, match="matrix contains NaN/Inf"):
            prefix_eranks(HiddenStateMatrix(bad), 5, centering, engine)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        prefix_eranks(HiddenStateMatrix(data), 0, centering, engine)
    for stride in (30, 31):
        with pytest.raises(TrajectoryTooShort):
            prefix_eranks(HiddenStateMatrix(data), stride, centering, engine)


@pytest.mark.parametrize(
    "rows,engine,counts",
    [
        (20, Engine.FACTOR, {"center": 1, "outer": 0, "row_factor": 1}),
        (60, Engine.FACTOR, {"center": 0, "outer": 0, "row_factor": 0}),
        (60, Engine.INCREMENTAL_GRAM, {"center": 0, "outer": 1, "row_factor": 0}),
    ],
    ids=["naive-T<D", "naive-T>D", "incremental-T>D"],
)
def test_a_late_range_builds_only_the_blocks_it_solves(monkeypatch, rows, engine, counts):
    # The last end alone: within D the factor engine centers one L block, past
    # D the Gram engine centers one scatter, and a range with no end within D
    # needs no row factor. The rows before it are still folded or scattered.
    calls = dict.fromkeys(counts, 0)

    def count(owner, name):
        kernel = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(owner, name, counted)

    count(dynamics, "center")
    count(np, "outer")
    count(dynamics, "row_factor")
    centering = Centering.ROW_MEAN_CENTERED
    matrix = hard_fixture("power-law", rows, 24, seed=rows)
    last = prefix_eranks(matrix, 5, centering, engine, slice(-1, None))
    assert calls == counts
    assert last.tobytes() == prefix_eranks(matrix, 5, centering, engine)[-1:].tobytes()


def test_walk_flops_counts_each_kernel():
    # Ends 2, 4 of D = 4 come from the head; 6, 8, 10 fold 6, 2 and 2 rows.
    head, build, solve = walk_flops(10, 4, 2, Centering.RAW)
    assert head == 2 * 4 * 4**2  # the row factor of min(T, D) rows
    assert build.tolist() == [2 * b * 4**2 for b in (0, 0, 6, 2, 2)]
    assert solve.tolist() == [8 / 3 * n**3 for n in (2, 4, 4, 4, 4)]
    # Every end past D (6, then 10): no head; the first fold takes every row up to it.
    head, build, _ = walk_flops(10, 4, 6, Centering.RAW)
    assert head == 0 and build.tolist() == [2 * b * 4**2 for b in (6, 4)]


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
    assert engine_drifts(matrix, stride, centering)[Engine.FACTOR] <= 1e-12
    series = prefix_metric_series(matrix, stride, centering)
    *oracle, final = [s.effective_rank for s in prefix_spectra(matrix, stride, centering)]
    assert series.eval_steps == tuple(eval_steps(rows, stride, centering))
    scale = max(oracle)
    for got, want in zip((series.velocity, series.acceleration), differences(oracle)):
        assert (got is None) == (want is None)
        if want is not None:
            assert abs(got - want) <= 1e-10 * scale


def test_engine_drifts_runs_one_oracle_pass(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return prefix_spectra(*args)

    monkeypatch.setattr(verify, "prefix_spectra", counted)
    drifts = engine_drifts(hard_fixture("gaussian", 50, 8, seed=0), 8, Centering.RAW)
    assert len(calls) == 1
    assert set(drifts) == set(Engine)


# Scales from 2^-1000 up to a peak of about 1.5e308 (the matrix's largest
# |value| is about 3.9). Unscaled, the Gram engine's squares underflow below
# about 1e-160 and overflow above about 1e153, and near the f64 maximum the
# factor engine and the whole-matrix SVD fail too.
SCALES = [2.0**-1000, 1e-170, 1e-160, 1e153, 1e160, 1e200, 2.0**600, 4e307]


def er_values(matrix, centering, engine):
    """The prefix and final ERs of the series, or with no engine, effective_rank."""
    if engine is None:
        return [effective_rank(matrix, centering)]
    series = prefix_metric_series(matrix, 40, centering, engine)
    return [*series.prefix_values, series.final]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "engine,bound",
    [
        (Engine.FACTOR, 1e-12),
        (Engine.INCREMENTAL_GRAM, 1e-8),
        pytest.param(None, 1e-12, id="effective_rank"),
    ],
)
@pytest.mark.parametrize("centering", Centering)
@pytest.mark.parametrize("scale", SCALES, ids=lambda scale: f"{scale:.2g}")
def test_extreme_magnitudes_keep_the_series(engine, bound, centering, scale):
    # Held to the unscaled matrix's values, not to the oracle, which shares
    # the rescaling in spectral.rescaled.
    matrix = hard_fixture("gaussian", 120, 16, seed=0)
    got = er_values(HiddenStateMatrix(matrix.data * scale), centering, engine)
    want = er_values(matrix, centering, engine)
    np.testing.assert_allclose(got, want, rtol=bound, atol=0)


def test_factor_engine_errors():
    matrix = hard_fixture("gaussian", 30, 8, seed=0)
    with pytest.raises(TrajectoryTooShort):
        trajectory_metrics(matrix, stride=30)
    for engine in Engine:  # no one-row centered prefix, which is the zero matrix, on either engine
        series = prefix_metric_series(matrix, 1, Centering.ROW_MEAN_CENTERED, engine)
        assert series.eval_steps[:2] == (2, 3)
        for rows in (6, 30):  # T <= D and T > D
            zeros = HiddenStateMatrix(np.zeros((rows, 8)))
            for centering in Centering:
                with pytest.raises(DegenerateMatrix):
                    trajectory_metrics(zeros, 2, centering, engine)
