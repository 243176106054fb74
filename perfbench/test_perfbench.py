"""Tests of the benchmark itself: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from inputs import oracle_metrics, prepare, stratified_lengths  # noqa: E402

TINY = {
    "metrics-long": dict(dims=16, t_median=100, t_min=60, t_max=200),
    "shape-step": dict(dims=64),
    "metrics-stream-centered": dict(dims=96, t_median=80, t_min=60, t_max=96),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_workload(name, trace, tmp_path):
    result = run.run(tiny(name), seed=3, seconds=0.05, trace=trace, cache=tmp_path)
    gate, metrics = result["gate"], result["metrics"]
    assert gate.attempted >= 1
    assert set(result["units"]) <= set(metrics)
    assert all(math.isfinite(metrics[k]) for k in result["units"])
    assert result["absent"] == []
    assert gate.failed == 0
    if not trace:
        assert metrics["tokens_per_s"] > 0 and metrics["setup_s"] > 0


def test_same_seed_same_inputs(tmp_path):
    w = tiny("shape-step")
    a, plan_a = prepare(w, 5, tmp_path / "a")
    b, plan_b = prepare(w, 5, tmp_path / "b")
    files = sorted(p.relative_to(a) for p in a.rglob("*.hsmx"))
    assert files and files == sorted(p.relative_to(b) for p in b.rglob("*.hsmx"))
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert plan_a == plan_b


def test_shape_step_rollouts_all_have_a_prefix_and_some_are_skipped():
    w = run.WORKLOADS["shape-step"]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pool = stratified_lengths(rng, w, w.batches * w.per_batch)
        assert pool.min() >= w.t_min and pool.max() <= w.t_max
        assert pool.min() > w.stride and (pool <= 3 * w.stride).any()


def test_oracle_matches_definition():
    import rankdyn as rd
    from rankdyn.dynamics import Engine
    from rankdyn.spectral import Centering

    rng = np.random.default_rng(0)
    for z, center, centering in (
        (rng.standard_normal((170, 24)), "raw", Centering.RAW),
        (rng.standard_normal((170, 24)) + 5.0, "rowmean", Centering.ROW_MEAN_CENTERED),
        (rng.standard_normal((130, 300)), "raw", Centering.RAW),
        (rng.standard_normal((130, 300)) + 5.0, "rowmean", Centering.ROW_MEAN_CENTERED),
    ):
        o = oracle_metrics(z, 40, center)
        er, series = rd.trajectory_metrics(rd.HiddenStateMatrix(z), 40, centering, Engine.NAIVE_SVD)
        assert check.drift(o, er, series.velocity, series.acceleration) < 1e-12


def _tiny_output(w, tmp_path):
    """(plan, batch index, CSV bytes) of the first batch the CLI completes."""
    import rankdyn.cli as cli

    seed_dir, plan = prepare(w, 1, tmp_path / "inputs")
    out = tmp_path / "out.csv"
    for b in range(w.batches):
        if cli.main(w.argv(seed_dir / f"b{b}", out)) == 0:
            return plan, b, out.read_bytes()
    raise AssertionError("no batch completed")


def _perturb_field(data: bytes, column: int) -> bytes:
    lines = data.decode().splitlines()
    fields = lines[1].split(",")
    fields[column] = repr(float(fields[column]) * (1 + 1e-6) + 1e-6)
    lines[1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("name,column", [("metrics-long", 4), ("shape-step", 3)])
def test_perturbed_value_or_nonzero_exit_raises_fail_ratio(name, column, tmp_path):
    w = tiny(name)
    plan, b, data = _tiny_output(w, tmp_path)
    n = len(plan["batches"][b]["trajectories"])

    def failed(*records):
        gate = run.Gate(w, plan)
        for code, out in records:
            gate.record(b, code, out)
        return gate.failed

    baseline = failed((0, data))
    bad = _perturb_field(data, column)
    assert failed((0, bad)) > baseline
    assert failed((2, None)) == n
    assert failed((0, data), (0, bad)) > 2 * baseline  # rerun no longer byte-identical


def test_missing_hook_is_an_absent_layer(monkeypatch, tmp_path):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + [("rankdyn.cli", "gone", "cli.gone")])
    result = run.run(tiny("metrics-long"), seed=0, seconds=0.05, trace=True, cache=tmp_path)
    assert result["absent"] == ["rankdyn.cli.gone"]
    assert result["gate"].failed == 0 and result["metrics"]["dynamics.prefixes"] > 0


def test_self_times_sum_to_root():
    rec = spans.Recorder()
    root = rec.open("cli.main")
    for name in ("tensor_io.read", "dynamics.trajectory"):
        i = rec.open(name)
        if name == "dynamics.trajectory":
            rec.close(rec.open("spectral.effective_rank"))
        rec.close(i)
    rec.close(root)
    assert sum(rec.self_seconds().values()) == pytest.approx(rec.spans[0].seconds, rel=1e-12)
    assert set(rec.self_seconds()) == {"cli", "tensor_io", "dynamics", "spectral"}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metrics-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
