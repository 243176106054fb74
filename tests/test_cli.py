import csv
import importlib.util
import inspect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rankdyn import (
    EmaState,
    HiddenStateMatrix,
    ShapingConfig,
    read_matrix,
    shape_from_metrics,
    trajectory_metrics,
    write_matrix,
)
from rankdyn import cli, verify
from rankdyn.cli import main, read_manifest, usable_cpus
from rankdyn.dynamics import Engine
from rankdyn.errors import GroupTooSmall, ManifestError
from rankdyn.lapack import openblas, qr_kernels
from rankdyn.spectral import Centering
from rankdyn.tensor_io import HEADER_SIZE


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def write_trajectory(path, rows, cols, seed):
    write_matrix(verify.hard_fixture("gaussian", rows, cols, seed), path)


def run_cli(*args, one_cpu=False, program=("-m", "rankdyn.cli")):
    """`python -m rankdyn.cli` in a child process, so a metric phase that never
    returns fails its test at the timeout. one_cpu restricts the child to one
    usable CPU, which keeps the metric phase in-process. program replaces
    `-m rankdyn.cli`, e.g. with `-c` and a script."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpu = min(os.sched_getaffinity(0))
    return subprocess.run(
        [sys.executable, *program, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None,
    )


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_metrics_command(tmp_path):
    for i in range(3):
        write_trajectory(tmp_path / f"t{i}.hsmx", 96, 8, seed=i)
    out = tmp_path / "m.csv"
    proc = run_cli("metrics", "--in", tmp_path / "*.hsmx", "--out", out, "--stride", "8")
    assert proc.returncode == 0
    rows = read_csv(out)
    assert rows[0] == ["id", "T", "D", "er", "erv", "era", "error"]
    assert [r[0] for r in rows[1:]] == ["t0", "t1", "t2"]  # input order
    for r in rows[1:]:
        assert float(r[3]) >= 1.0
        assert r[6] == ""


def test_metrics_short_trajectory_empty_fields(tmp_path):
    # stride 40 over 81 rows: K = 2, so velocity exists but acceleration is empty
    write_trajectory(tmp_path / "short.hsmx", 81, 4, seed=0)
    out = tmp_path / "m.csv"
    assert main(["metrics", "--in", str(tmp_path / "*.hsmx"), "--out", str(out)]) == 0
    row = read_csv(out)[1]
    assert row[4] != "" and row[5] == ""


def test_metrics_bad_file_reported_not_fatal(tmp_path):
    write_trajectory(tmp_path / "a.hsmx", 96, 4, seed=0)
    (tmp_path / "b.hsmx").write_bytes(b"XXXX" + bytes(40))
    out = tmp_path / "m.csv"
    proc = run_cli("metrics", "--in", tmp_path / "*.hsmx", "--out", out, "--stride", "8")
    assert proc.returncode == 0
    rows = read_csv(out)
    assert rows[1][6] == ""
    assert rows[2][6].startswith("BadMagic")


def test_metrics_unreadable_file_reported_not_fatal(tmp_path):
    # a glob match that is a directory, and one that is a dangling link
    write_trajectory(tmp_path / "a.hsmx", 96, 4, seed=0)
    (tmp_path / "b.hsmx").mkdir()
    (tmp_path / "c.hsmx").symlink_to(tmp_path / "gone.hsmx")
    out = tmp_path / "m.csv"
    assert main(["metrics", "--in", str(tmp_path / "*.hsmx"), "--out", str(out)]) == 0
    errors = [row[6] for row in read_csv(out)[1:]]
    assert errors[0] == ""
    assert errors[1].startswith("IsADirectoryError: ") and str(tmp_path / "b.hsmx") in errors[1]
    assert errors[2].startswith("FileNotFoundError: ") and str(tmp_path / "c.hsmx") in errors[2]


def test_unreadable_input_or_output_exits_2(tmp_path, capsys, monkeypatch):
    write_trajectory(tmp_path / "a.hsmx", 96, 4, seed=0)
    missing = tmp_path / "gone" / "x"
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{tmp_path / 'a.hsmx'},g0,1,1\n{missing},g0,0,1\n")
    metrics = ["metrics", "--in", str(tmp_path / "a.hsmx")]
    for argv, message in [
        (["shape", "--manifest", str(missing), "--out", str(tmp_path / "s.csv")], str(missing)),
        (["shape", "--manifest", str(manifest), "--out", str(tmp_path / "s.csv")],
         f"{missing}: FileNotFoundError: "),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    # An output in a missing directory, an output that is a directory, --out
    # and --stats naming one file, and a non-finite --eps all fail before the
    # metric phase runs.
    monkeypatch.setattr(cli, "metric_phase", lambda *args: pytest.fail("metric phase ran"))
    folder = tmp_path / "d"
    folder.mkdir()
    out = ["--out", str(tmp_path / "m.csv")]
    for argv, message in [
        (["shape", "--manifest", str(manifest), "--out", str(missing)], str(missing)),
        (metrics + ["--out", str(missing)], str(missing)),
        (metrics + out + ["--stats", str(missing)], str(missing)),
        (metrics + out + ["--stats", str(folder / ".." / "m.csv")], "are the same file"),
        (metrics + ["--out", str(folder)], f"{folder}: is a directory"),
        (metrics + out + ["--stats", str(folder)], f"{folder}: is a directory"),
        (["shape", "--manifest", str(manifest), "--out", str(tmp_path / "s.csv"), "--eps", "nan"],
         "epsilon must be positive and finite"),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.csv").exists()
    # Run as a program: the same exit code, and no traceback.
    proc = run_cli("shape", "--manifest", manifest, "--out", tmp_path / "s.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {missing}: FileNotFoundError: [Errno 2] ")
    assert "Traceback" not in proc.stderr


def test_stride_below_one_exits_2(tmp_path, capsys):
    manifest = make_manifest(tmp_path, n_groups=1, group_size=2)
    out = tmp_path / "o.csv"
    for argv in [["metrics", "--in", str(tmp_path / "*.hsmx")],
                 ["shape", "--manifest", str(manifest)]]:
        assert main([*argv, "--out", str(out), "--stride", "0"]) == 2
        assert capsys.readouterr().err == "error: stride must be >= 1\n"
        assert not out.exists()


def make_manifest(tmp_path, n_groups=2, group_size=4, rows=96):
    lines = []
    idx = 0
    for g in range(n_groups):
        for j in range(group_size):
            path = tmp_path / f"t{idx}.hsmx"
            write_trajectory(path, rows, 8, seed=idx)
            lines.append(f"{path},g{g},{idx % 2},{(idx // 2) % 2}")
            idx += 1
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# fixture\n" + "\n".join(lines) + "\n")
    return manifest


def test_shape_command_and_determinism(tmp_path):
    manifest = make_manifest(tmp_path)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["shape", "--manifest", manifest, "--stride", "8", "--group-size", "4"]
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == ["id", "group", "reward", "a0", "d0", "d1", "d2", "beta", "phi", "a_hat"]
    assert len(rows) == 9
    # first trajectory warms the EMA: neutral shaping
    assert float(rows[1][4]) == 0.0  # d0
    assert float(rows[1][7]) == 0.5  # beta
    assert rows[1][3] == rows[1][9]  # a_hat == a0


def test_shape_group_advantages(tmp_path):
    # rewards (+1, +1, -1, -1) within one group -> advantages (+1, +1, -1, -1)
    lines = []
    for i, (c, b) in enumerate([(1, 1), (1, 1), (0, 0), (0, 0)]):
        path = tmp_path / f"t{i}.hsmx"
        write_trajectory(path, 96, 8, seed=i)
        lines.append(f"{path},g0,{c},{b}")
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(lines))
    out = tmp_path / "s.csv"
    assert run_cli("shape", "--manifest", manifest, "--out", out, "--stride", "8").returncode == 0
    rows = read_csv(out)
    assert [float(r[3]) for r in rows[1:]] == [1.0, 1.0, -1.0, -1.0]


def test_shape_degenerate_group_zero_advantages(tmp_path):
    lines = []
    for i in range(4):
        path = tmp_path / f"t{i}.hsmx"
        write_trajectory(path, 96, 8, seed=i)
        lines.append(f"{path},g0,1,1")  # all correct, all boxed
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(lines))
    out = tmp_path / "s.csv"
    assert run_cli("shape", "--manifest", manifest, "--out", out, "--stride", "8").returncode == 0
    for r in read_csv(out)[1:]:
        assert float(r[2]) == 1.0  # reward
        assert float(r[3]) == 0.0  # a0
        assert float(r[9]) == 0.0  # a_hat: zero base advantage earns zero bonus


def test_shape_short_rollout_skipped_not_fatal(tmp_path):
    # t1 has T <= stride: no prefix, so its row keeps a_hat = a0 and the EMA
    # only sees t0 and t2, exactly as if t1 were absent from the run.
    lines = []
    for i, rows in enumerate([96, 8, 96]):
        path = tmp_path / f"t{i}.hsmx"
        write_trajectory(path, rows, 8, seed=i)
        lines.append(f"{path},g0,{i % 2},1")
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(lines))
    out = tmp_path / "s.csv"
    assert run_cli("shape", "--manifest", manifest, "--out", out, "--stride", "8").returncode == 0
    rows = read_csv(out)
    assert [r[0] for r in rows[1:]] == ["t0", "t1", "t2"]
    short = rows[2]
    assert short[4:9] == [""] * 5 and short[9] == short[3] and float(short[3]) != 0.0
    config = ShapingConfig()
    state = EmaState()
    for i in (0, 2):
        final_er, series = trajectory_metrics(read_matrix(tmp_path / f"t{i}.hsmx"), 8)
        outcome, state = shape_from_metrics(
            final_er, series.velocity, series.acceleration, float(rows[i + 1][3]), state, config
        )
    shaped = (outcome.d0, outcome.d1, outcome.d2, outcome.beta, outcome.phi, outcome.a_hat)
    assert rows[3][4:] == [format(v, ".17g") for v in shaped]


def test_shape_group_size_mismatch(tmp_path):
    manifest = make_manifest(tmp_path, n_groups=1, group_size=3)
    assert (
        main(
            [
                "shape",
                "--manifest",
                str(manifest),
                "--out",
                str(tmp_path / "s.csv"),
                "--group-size",
                "4",
            ]
        )
        == 2
    )


def test_manifest_parsing(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\na.hsmx, g1, 1, 0\n\nb.hsmx,g1,0,1\n")
    entries = read_manifest(path)
    assert len(entries) == 2
    assert entries[0].is_correct and not entries[0].has_boxed
    path.write_text("a.hsmx,g1,2,0\n")
    with pytest.raises(ManifestError):
        read_manifest(path)


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_verify_command(capsys, name):
    assert main(["verify", "--suite", name]) == 0
    out = capsys.readouterr().out
    assert f"{name},pass," in out and "overall,pass,1/1" in out


def test_verify_reports_a_failing_suite(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "rank-bounds", lambda seed: (False, f"seed {seed}"))
    assert main(["verify", "--suite", "rank-bounds"]) == 1
    out = capsys.readouterr().out
    assert "rank-bounds,FAIL,seed 0" in out and "overall,FAIL,0/1" in out


def test_verify_runs_every_suite_at_the_seed(capsys, monkeypatch):
    calls = []
    for name in verify.SUITES:
        record = lambda seed, n=name: (calls.append((n, seed)) or True, "")  # a passing suite
        monkeypatch.setitem(verify.SUITES, name, record)
    assert main(["verify", "--seed", "42"]) == 0
    assert calls == [(name, 42) for name in verify.SUITES]
    assert f"overall,pass,{len(calls)}/{len(calls)}" in capsys.readouterr().out


def test_cli_defaults_come_from_the_library():
    shape = cli.build_parser().parse_args(["shape", "--manifest", "m.txt", "--out", "s.csv"])
    library = (ShapingConfig.kappa, EmaState.gamma, ShapingConfig.epsilon)
    assert (shape.kappa, shape.gamma, shape.eps) == library == (2.0, 0.9, 1e-8)
    defaults = inspect.signature(trajectory_metrics).parameters
    library = (defaults["centering"].default.value, defaults["engine"].default.value)
    assert (shape.center, shape.engine) == library == ("raw", "naive")


def test_perfbench_hooks_resolve(tmp_path, monkeypatch):
    # perfbench/spans.py wraps these names by string; a rename would leave a
    # layer untimed, so the benchmark's own check would fail.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.Tracer().absent == []
    assert Engine.NAIVE_SVD is Engine.FACTOR  # spelled so in perfbench/
    # It also reads attributes of what the hooks get and return: one traced
    # run of each command must fill the layer counts. At stride 40 the four
    # trajectories have 2, 0, 4 and 2 prefixes; only T = 200 has an ERA, and
    # its bonus (phi 0.072) passes the clip |a0| / kappa = 0.01.
    manifest = tmp_path / "m.txt"
    for i, rows in enumerate([120, 30, 200, 90]):
        matrix = verify.hard_fixture("gaussian", rows, 16, i)
        write_matrix(matrix, tmp_path / f"t{i}.hsmx", dtype="f32")
        with manifest.open("a") as fh:
            fh.write(f"{tmp_path / f't{i}.hsmx'},g,{i % 2},1\n")
    out = tmp_path / "out.csv"
    commands = [
        ["metrics", "--in", tmp_path / "*.hsmx", "--engine", "incremental", "--center", "rowmean"],
        ["shape", "--manifest", manifest, "--kappa", "100"],
    ]
    layers = {}
    for argv in commands:
        code, recorder = spans.Tracer().run(main, [str(a) for a in argv + ["--out", out]])
        assert code == 0
        layers[argv[0]] = spans.layer_metrics([recorder], [out.stat().st_size])
    metrics, shape = layers["metrics"], layers["shape"]
    assert metrics["dynamics.prefixes"] == shape["dynamics.prefixes"] == 8
    assert metrics["gram_stream.eig_calls"] > 0
    assert (shape["shaping.shaped"], shape["shaping.skipped"], shape["shaping.clipped"]) == (1, 2, 1)


def test_inputs_never_mutated(tmp_path):
    path = tmp_path / "t.hsmx"
    write_trajectory(path, 96, 8, seed=0)
    before = path.read_bytes()
    main(["metrics", "--in", str(path), "--out", str(tmp_path / "m.csv"), "--stride", "8"])
    assert path.read_bytes() == before


TAIL = HEADER_SIZE + 96 * 8 * 8  # where f.hsmx, b.hsmx plus one byte, goes wrong


def write_mixed_batch(tmp_path):
    """T > D, T < D, a T <= stride rollout and a file with trailing bytes. At
    300x200 the incremental engine's floats depend on the BLAS thread count."""
    for name, rows, cols in [("a", 150, 8), ("b", 96, 8), ("c", 40, 64), ("d", 300, 200),
                             ("e", 8, 8)]:
        write_trajectory(tmp_path / f"{name}.hsmx", rows, cols, seed=rows)
    (tmp_path / "f.hsmx").write_bytes((tmp_path / "b.hsmx").read_bytes() + b"\0")
    return [tmp_path / f"{name}.hsmx" for name in "abcdef"]


def worker_counts_agree(args, tmp_path, program=("-m", "rankdyn.cli")):
    """Run args once on one usable CPU (in-process) and once unrestricted (the
    pool), check that they agree, and return the pooled run's exit code,
    stderr, CSV bytes and --stats report."""
    runs = []
    for one_cpu in (True, False):
        out, stats = tmp_path / f"out{one_cpu}.csv", tmp_path / f"stats{one_cpu}.json"
        out.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        proc = run_cli(*args, "--out", out, "--stats", stats, one_cpu=one_cpu, program=program)
        report = json.loads(stats.read_text()) if stats.exists() else None
        data = out.read_bytes() if out.exists() else None
        runs.append((proc.returncode, proc.stderr, data, report))
    single, pooled = runs
    assert single[:3] == pooled[:3]
    if single[3] is not None:
        assert single[3]["workers"] == 1
        expected = min(usable_cpus(), 6) if pooled[3]["blas_pinned"] else 1
        assert pooled[3]["workers"] == expected
    return pooled


@pytest.mark.parametrize("engine", ["naive", "incremental"])
@pytest.mark.parametrize("center", ["raw", "rowmean"])
def test_metrics_bytes_do_not_depend_on_worker_count(tmp_path, engine, center):
    write_mixed_batch(tmp_path)
    args = ["metrics", "--in", tmp_path / "*.hsmx", "--stride", "8"]
    code, _, data, report = worker_counts_agree(
        args + ["--engine", engine, "--center", center], tmp_path
    )
    assert code == 0
    errors = [row[6] for row in csv.reader(data.decode().splitlines()[1:])]
    assert errors[:4] == [""] * 4
    assert errors[4].startswith("TrajectoryTooShort: ")
    assert errors[5] == f"FormatError: 1 trailing bytes after the payload (byte offset {TAIL})"
    assert report["engine"] == engine
    assert report["qr"] == (("lapack" if qr_kernels() else "numpy") if engine == "naive" else None)
    assert report["rows"] == {"ok": 4, "skipped": 0, "error": 2}
    assert report["errors"] == {"FormatError": 1, "TrajectoryTooShort": 1}
    assert set(report["stage_s"]) == {"read", "metrics", "write"}


NUMPY_QR = "from rankdyn import cli, lapack; lapack.qr_kernels = lambda: None; cli.run()"


@pytest.mark.parametrize("center", ["raw", "rowmean"])
def test_numpy_qr_fallback_bytes_do_not_depend_on_worker_count(tmp_path, center):
    write_mixed_batch(tmp_path)
    args = ["metrics", "--in", tmp_path / "*.hsmx", "--stride", "8", "--center", center]
    code, _, data, report = worker_counts_agree(args, tmp_path, program=("-c", NUMPY_QR))
    assert code == 0 and report["qr"] == "numpy"
    assert report["rows"] == {"ok": 4, "skipped": 0, "error": 2}
    # The default QR path, in-process, agrees with the fallback's CSV.
    out = tmp_path / "default.csv"
    assert main([str(a) for a in args] + ["--out", str(out)]) == 0
    default, fallback = read_csv(out), list(csv.reader(data.decode().splitlines()))
    assert len(default) == len(fallback) == 7
    for got, want in zip(default[1:], fallback[1:]):
        assert got[:3] + got[6:] == want[:3] + want[6:]
        values = [[float(v or "nan") for v in row[3:6]] for row in (got, want)]
        np.testing.assert_allclose(*values, rtol=0, atol=1e-10)


def test_usable_cpus_caps_at_cgroup_quota(tmp_path, monkeypatch):
    affinity = len(os.sched_getaffinity(0))
    monkeypatch.setattr(cli, "CPU_MAX", tmp_path / "cpu.max")
    monkeypatch.setattr(cli, "CFS_QUOTA", tmp_path / "cpu.cfs_quota_us")
    monkeypatch.setattr(cli, "CFS_PERIOD", tmp_path / "cpu.cfs_period_us")
    assert usable_cpus() == affinity  # no quota file: no cap
    # cgroup v1: quota and period in two files, -1 for no quota
    cli.CFS_PERIOD.write_text("100000\n")
    for quota, cap in [("-1", affinity), ("150000", 2), ("100000", 1), ("50000", 1)]:
        cli.CFS_QUOTA.write_text(quota + "\n")
        assert usable_cpus() == min(affinity, cap)
    # cgroup v2: cpu.max, where it exists, overrides the v1 files
    for text, cap in [("max 100000\n", affinity), ("150000 100000\n", 2),
                      ("100000 100000\n", 1), ("50000 100000\n", 1)]:
        cli.CPU_MAX.write_text(text)
        assert usable_cpus() == min(affinity, cap)
    # A one-CPU quota keeps even a forking metric phase in-process.
    write_trajectory(tmp_path / "a.hsmx", 96, 8, seed=0)
    write_trajectory(tmp_path / "b.hsmx", 96, 8, seed=1)
    paths = [str(tmp_path / "a.hsmx"), str(tmp_path / "b.hsmx")]
    _, report = cli.metric_phase(paths, 8, Centering.RAW, Engine.FACTOR, fork=True)
    assert report["workers"] == 1


@pytest.mark.parametrize(
    "files",
    [{"cpu.cfs_quota_us": "100000\n"},
     {"cpu.cfs_quota_us": "max\n", "cpu.cfs_period_us": "100000\n"},
     {"cpu.max": "", "cpu.cfs_quota_us": "100000\n", "cpu.cfs_period_us": "100000\n"}],
    ids=["v1-without-period", "v1-not-a-number", "v2-empty-overrides-v1"],
)
def test_usable_cpus_ignores_unreadable_quota(tmp_path, monkeypatch, files):
    monkeypatch.setattr(cli, "CPU_MAX", tmp_path / "cpu.max")
    monkeypatch.setattr(cli, "CFS_QUOTA", tmp_path / "cpu.cfs_quota_us")
    monkeypatch.setattr(cli, "CFS_PERIOD", tmp_path / "cpu.cfs_period_us")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert usable_cpus() == len(os.sched_getaffinity(0))

def test_shape_bytes_do_not_depend_on_worker_count(tmp_path):
    paths = write_mixed_batch(tmp_path)
    manifest = tmp_path / "m.txt"
    manifest.write_text("".join(f"{p},g0,{i % 2},1\n" for i, p in enumerate(paths[:5])))
    code, _, data, report = worker_counts_agree(
        ["shape", "--manifest", manifest, "--stride", "8"], tmp_path
    )
    assert code == 0 and data.count(b"\n") == 6
    assert report["rows"] == {"ok": 4, "skipped": 1, "error": 0}
    assert set(report["stage_s"]) == {"read", "metrics", "shaping", "write"}

    # Any error but a short rollout still aborts the run, naming the file.
    manifest.write_text("".join(f"{p},g0,{i % 2},1\n" for i, p in enumerate(paths)))
    code, stderr, data, report = worker_counts_agree(
        ["shape", "--manifest", manifest, "--stride", "8"], tmp_path
    )
    assert code == 2 and data is None and report is None
    message = f"1 trailing bytes after the payload (byte offset {TAIL})"
    assert stderr == f"error: {paths[5]}: FormatError: {message}\n"


def test_main_keeps_metric_phase_in_process(tmp_path):
    write_mixed_batch(tmp_path)
    stats = tmp_path / "stats.json"
    args = ["--in", str(tmp_path / "*.hsmx"), "--out", str(tmp_path / "m.csv")]
    assert main(["metrics", *args, "--stride", "8", "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["workers"] == 1


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_dead_worker_fails_the_run(tmp_path):
    write_mixed_batch(tmp_path)
    out, stats = tmp_path / "m.csv", tmp_path / "stats.json"
    kill = "import os; from rankdyn import cli; cli.read_matrix = lambda p: os._exit(3); cli.run()"
    proc = run_cli("metrics", "--in", tmp_path / "*.hsmx", "--out", out, "--stats", stats,
                   program=("-c", kill))
    assert proc.returncode == 1 and "BrokenProcessPool" in proc.stderr
    assert not out.exists()


# Each worker records its pid, then holds its trajectory; once both hold one,
# the CLI SIGKILLs itself, as a caller's Popen.kill() would. A worker lets go
# of the CLI's stdout and stderr, so run_cli returns when the CLI dies.
HOLD_THEN_KILL_CLI = """
import os, signal, threading, time
from rankdyn import cli

def hold(path):
    open(os.path.join({pids!r}, str(os.getpid())), "w").close()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    time.sleep(60)

def kill_cli_once_both_hold():
    while len(os.listdir({pids!r})) < 2:
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)

cli.read_matrix = hold
threading.Thread(target=kill_cli_once_both_hold, daemon=True).start()
cli.run()
"""


def running(pid):
    """True unless the process is gone or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(sys.platform != "linux" or usable_cpus() < 2 or openblas() is None,
                    reason="needs Linux and a forking metric phase (two CPUs, a pinnable BLAS)")
def test_workers_die_with_a_killed_cli(tmp_path):
    write_trajectory(tmp_path / "a.hsmx", 96, 8, seed=0)
    write_trajectory(tmp_path / "b.hsmx", 96, 8, seed=1)
    pids = tmp_path / "pids"
    pids.mkdir()
    try:
        proc = run_cli("metrics", "--in", tmp_path / "*.hsmx", "--out", tmp_path / "m.csv",
                       program=("-c", HOLD_THEN_KILL_CLI.format(pids=str(pids))))
        assert proc.returncode == -signal.SIGKILL
        workers = [int(p.name) for p in pids.iterdir()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        for pid in [int(p.name) for p in pids.iterdir()]:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_stride_one_centered_runs_on_both_engines(tmp_path):
    write_trajectory(tmp_path / "t0.hsmx", 30, 6, seed=0)
    rows = {}
    for engine in ("naive", "incremental"):
        out = tmp_path / f"{engine}.csv"
        args = ["--stride", "1", "--center", "rowmean", "--engine", engine, "--out", str(out)]
        assert main(["metrics", "--in", str(tmp_path / "t0.hsmx"), *args]) == 0
        rows[engine] = read_csv(out)[1]
    naive, incremental = rows["naive"], rows["incremental"]
    assert naive[:3] == incremental[:3] == ["t0", "30", "6"]
    assert naive[6] == incremental[6] == ""
    np.testing.assert_allclose(
        [float(v) for v in incremental[3:6]], [float(v) for v in naive[3:6]], rtol=1e-8
    )

    write_trajectory(tmp_path / "t1.hsmx", 30, 6, seed=1)
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{tmp_path / 't0.hsmx'},g0,1,1\n{tmp_path / 't1.hsmx'},g0,0,1\n")
    out = tmp_path / "s.csv"
    proc = run_cli(
        "shape", "--manifest", manifest, "--out", out, "--stride", "1", "--center", "rowmean"
    )
    assert proc.returncode == 0, proc.stderr
    assert all(row[8] != "" for row in read_csv(out)[1:])  # phi: both rows shaped
