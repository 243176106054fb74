import csv
import importlib.util
import inspect
import json
import os
import signal
import struct
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
    prefix_metric_series,
    read_matrix,
    shape_from_metrics,
    trajectory_metrics,
    write_matrix,
)
from rankdyn import cli, verify
from rankdyn.cli import main, read_manifest, usable_cpus
from rankdyn.dynamics import Engine, eval_steps, walk_flops
from rankdyn.errors import GroupTooSmall, ManifestError
from rankdyn.lapack import eig_kernel, openblas, qr_kernels
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
    # a glob match that is a directory, one that is a dangling link and one
    # that is a symlink loop
    write_trajectory(tmp_path / "a.hsmx", 96, 4, seed=0)
    (tmp_path / "b.hsmx").mkdir()
    (tmp_path / "c.hsmx").symlink_to(tmp_path / "gone.hsmx")
    (tmp_path / "d.hsmx").symlink_to(tmp_path / "d.hsmx")
    out = tmp_path / "m.csv"
    assert main(["metrics", "--in", str(tmp_path / "*.hsmx"), "--out", str(out)]) == 0
    errors = [row[6] for row in read_csv(out)[1:]]
    assert errors[0] == ""
    assert errors[1].startswith("IsADirectoryError: ") and str(tmp_path / "b.hsmx") in errors[1]
    assert errors[2].startswith("FileNotFoundError: ") and str(tmp_path / "c.hsmx") in errors[2]
    loop = f"OSError: [Errno 40] Too many levels of symbolic links: '{tmp_path / 'd.hsmx'}'"
    assert errors[3] == loop


@pytest.mark.parametrize("center", ["raw", "rowmean"])
def test_all_zero_trajectory_writes_one_error_on_both_engines(tmp_path, center):
    write_matrix(HiddenStateMatrix(np.zeros((96, 8))), tmp_path / "z.hsmx")
    errors = []
    for engine in ("naive", "incremental"):
        out = tmp_path / f"{engine}.csv"
        args = ["--center", center, "--engine", engine, "--stride", "8", "--out", str(out)]
        assert main(["metrics", "--in", str(tmp_path / "z.hsmx"), *args]) == 0
        errors.append(read_csv(out)[1][6])
    assert errors == ["DegenerateMatrix: all singular values vanish"] * 2


def test_metrics_runs_an_f64_file_past_the_gram_range(tmp_path):
    # Scaled by 2^600, the Gram engine's squares would overflow f64.
    matrix = verify.hard_fixture("gaussian", 120, 16, seed=0)
    write_matrix(HiddenStateMatrix(np.ldexp(matrix.data, 600)), tmp_path / "t.hsmx")
    out = tmp_path / "m.csv"
    proc = run_cli("metrics", "--in", tmp_path / "t.hsmx", "--out", out, "--engine", "incremental")
    assert (proc.returncode, proc.stderr) == (0, "")
    row = read_csv(out)[1]
    assert row[6] == ""
    want = prefix_metric_series(matrix, engine=Engine.INCREMENTAL_GRAM).final
    assert abs(float(row[3]) - want) <= 1e-8 * want


def test_unreadable_input_or_output_exits_2(tmp_path, capsys, monkeypatch):
    write_trajectory(tmp_path / "a.hsmx", 96, 4, seed=0)
    missing = tmp_path / "gone" / "x"
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"{tmp_path / 'a.hsmx'},g0,1,1\n{missing},g0,0,1\n")
    comments = tmp_path / "c.txt"
    comments.write_text("# no records\n\n# here\n")
    metrics = ["metrics", "--in", str(tmp_path / "a.hsmx")]
    assert main(["shape", "--manifest", str(missing), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    # An output in a missing directory, directly or through a symlink, an
    # output that is a directory or a symlink loop, --out and --stats naming
    # one file, a non-finite --eps, a --gamma of 1 and a manifest of comments
    # only all fail before the metric phase runs.
    monkeypatch.setattr(cli, "metric_phase", lambda *args: pytest.fail("metric phase ran"))
    folder = tmp_path / "d"
    folder.mkdir()
    out = ["--out", str(tmp_path / "m.csv")]
    link = tmp_path / "link.csv"  # open would write through it into the missing directory
    link.symlink_to(missing)
    loop = tmp_path / "loop.csv"
    loop.symlink_to(loop)
    for argv, message in [
        (metrics + ["--out", str(loop)], f"{loop}: is a symlink loop"),
        (metrics + out + ["--stats", str(loop)], f"{loop}: is a symlink loop"),
        (["shape", "--manifest", str(manifest), "--out", str(missing)], str(missing)),
        (metrics + ["--out", str(missing)], str(missing)),
        (metrics + ["--out", str(link)], f"{link}: no such directory"),
        (metrics + out + ["--stats", str(missing)], str(missing)),
        (metrics + out + ["--stats", str(folder / ".." / "m.csv")], "are the same file"),
        (metrics + ["--out", str(folder)], f"{folder}: is a directory"),
        (metrics + out + ["--stats", str(folder)], f"{folder}: is a directory"),
        (["shape", "--manifest", str(manifest), "--out", str(tmp_path / "s.csv"), "--eps", "nan"],
         "epsilon must be positive and finite"),
        (["shape", "--manifest", str(manifest), "--out", str(tmp_path / "s.csv"), "--gamma", "1"],
         "gamma must lie in (0, 1)"),
        (["shape", "--manifest", str(comments), "--out", str(tmp_path / "s.csv")],
         f"{comments}: manifest holds no records"),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "m.csv").exists()
    # Run as a program: the same exit code, and no traceback.
    proc = run_cli("shape", "--manifest", missing, "--out", tmp_path / "s.csv")
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_stride_below_one_exits_2(tmp_path, capsys, monkeypatch):
    manifest = make_manifest(tmp_path, n_groups=1, group_size=2)
    out = tmp_path / "o.csv"
    reads = []
    monkeypatch.setattr(cli, "read_matrix", reads.append)
    for argv in [["metrics", "--in", str(tmp_path / "*.hsmx")],
                 ["shape", "--manifest", str(manifest)]]:
        assert main([*argv, "--out", str(out), "--stride", "0"]) == 2
        assert capsys.readouterr().err == "error: stride must be >= 1\n"
        assert not out.exists()
    assert reads == []


def test_an_output_that_names_an_input_exits_2(tmp_path, capsys, monkeypatch):
    # The manifest, a manifest entry or a file the glob matches, however the
    # output spells it, fails before any trajectory is read, and no input changes.
    manifest = make_manifest(tmp_path, n_groups=1, group_size=2)
    inputs = {path: path.read_bytes() for path in tmp_path.iterdir()}
    folder = tmp_path / "d"
    folder.mkdir()
    (folder / "link.csv").symlink_to(manifest)
    reads = []
    monkeypatch.setattr(cli, "read_matrix", reads.append)
    shape = ["shape", "--manifest", str(manifest)]
    metrics = ["metrics", "--in", str(tmp_path / "*.hsmx")]
    out = ["--out", str(tmp_path / "o.csv")]
    for argv, named in [
        (shape + ["--out", str(manifest)], manifest),
        (shape + ["--out", str(folder / "link.csv")], folder / "link.csv"),
        (shape + out + ["--stats", str(folder / ".." / "t1.hsmx")], folder / ".." / "t1.hsmx"),
        (metrics + ["--out", str(tmp_path / "t1.hsmx")], tmp_path / "t1.hsmx"),
        (metrics + out + ["--stats", str(tmp_path / "t0.hsmx")], tmp_path / "t0.hsmx"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}: is an input of this run\n"
    assert reads == [] and not (tmp_path / "o.csv").exists()
    assert {path: path.read_bytes() for path in inputs} == inputs


def test_two_files_with_one_stem_exit_2(tmp_path, capsys, monkeypatch):
    # A row's id is its file's stem, so d/a/t0.hsmx and d/b/t0.hsmx fail before
    # any trajectory is read. A manifest t0.txt beside t0.hsmx is no trajectory,
    # and one file listed twice is one trajectory.
    first, second = tmp_path / "d" / "a" / "t0.hsmx", tmp_path / "d" / "b" / "t0.hsmx"
    for path in (first, second):
        path.parent.mkdir(parents=True)
        write_trajectory(path, 96, 8, seed=0)
    manifest = tmp_path / "d" / "a" / "t0.txt"
    manifest.write_text(f"{first},g0,1,1\n{second},g0,0,1\n")
    reads = []
    monkeypatch.setattr(cli, "read_matrix", reads.append)
    out = tmp_path / "o.csv"
    for argv in [["metrics", "--in", str(tmp_path / "d" / "*" / "t0.hsmx")],
                 ["shape", "--manifest", str(manifest)]]:
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {first} and {second} both have the id 't0'\n"
    assert reads == [] and not out.exists()
    monkeypatch.undo()
    manifest.write_text(f"{first},g0,1,1\n{first},g0,0,1\n")
    assert main(["shape", "--manifest", str(manifest), "--out", str(out), "--stride", "8"]) == 0
    assert [row[0] for row in read_csv(out)[1:]] == ["t0", "t0"]


def test_a_glob_with_no_match_exits_2(tmp_path):
    pattern = tmp_path / "*.hsmx"
    proc = run_cli("metrics", "--in", pattern, "--out", tmp_path / "m.csv")
    assert (proc.returncode, proc.stderr) == (2, f"error: no files match {str(pattern)!r}\n")
    assert not (tmp_path / "m.csv").exists()


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


@pytest.mark.parametrize("pre_update", [False, True], ids=["post-update", "pre-update"])
def test_shape_switches_match_the_library(tmp_path, pre_update):
    # Each deviation ordering gives the library's shaping of the same metrics,
    # and the two orderings give different CSVs.
    lines = []
    for i, rows in enumerate([96, 160, 128]):
        write_trajectory(tmp_path / f"t{i}.hsmx", rows, 8, seed=i)
        lines.append(f"{tmp_path / f't{i}.hsmx'},g0,{i % 2},1")
    manifest = tmp_path / "m.txt"
    manifest.write_text("\n".join(lines) + "\n")
    csvs = {}
    for flags in ([], ["--pre-update-deviation"]):
        out = tmp_path / f"s{len(csvs)}.csv"
        assert main(["shape", "--manifest", str(manifest), "--out", str(out), "--stride", "8",
                     *flags]) == 0
        csvs[bool(flags)] = out.read_bytes()
    assert csvs[False] != csvs[True]
    rows = list(csv.reader(csvs[pre_update].decode().splitlines()))[1:]
    state = EmaState()
    config = ShapingConfig(pre_update_deviation=pre_update)
    for i, row in enumerate(rows):
        final_er, series = trajectory_metrics(read_matrix(tmp_path / f"t{i}.hsmx"), 8)
        outcome, state = shape_from_metrics(
            final_er, series.velocity, series.acceleration, float(row[3]), state, config
        )
        shaped = (outcome.d0, outcome.d1, outcome.d2, outcome.beta, outcome.phi, outcome.a_hat)
        assert row[4:] == [format(v, ".17g") for v in shaped]


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


def test_import_leaves_the_lazy_modules_unloaded():
    # setup_s pays for every module `import rankdyn.cli` loads; these are
    # imported only where they are used.
    lazy = ["numpy.ctypeslib", "concurrent.futures", "json"]
    script = f"import sys, rankdyn.cli; print([m for m in {lazy} if m in sys.modules])"
    proc = run_cli(program=("-c", script))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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
    # its bonus (phi 0.072) passes the clip |a0| / kappa = 0.01. The failed
    # T = 30 rollout is shaped too, as an unshaped outcome.
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
    # One solve per prefix and per final ER; T = 30 has neither.
    assert metrics["gram_stream.eig_calls"] == 8 + 3
    assert (shape["shaping.shaped"], shape["shaping.skipped"], shape["shaping.clipped"]) == (1, 3, 1)


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
        trajectories = pooled[2].count(b"\n") - 1  # one CSV row each
        assert (single[3]["workers"], single[3]["jobs"], single[3]["split"]) == (1, trajectories, 0)
        # The pool has one worker per job at most, and a split trajectory adds jobs.
        expected = min(usable_cpus(), pooled[3]["jobs"]) if pooled[3]["blas_pinned"] else 1
        assert pooled[3]["workers"] == expected
        assert pooled[3]["jobs"] >= trajectories + pooled[3]["split"]
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
    assert report["eig"] == (
        ("lapack" if eig_kernel() else "numpy") if engine == "incremental" else None
    )
    assert report["rows"] == {"ok": 4, "error": 2}
    assert report["errors"] == {"FormatError": 1, "TrajectoryTooShort": 1}
    assert set(report["stage_s"]) == {"read", "metrics", "write"}


NUMPY_QR = "from rankdyn import cli, lapack; lapack.qr_kernels = lambda: None; cli.run()"


@pytest.mark.parametrize("center", ["raw", "rowmean"])
def test_numpy_qr_fallback_bytes_do_not_depend_on_worker_count(tmp_path, center):
    write_mixed_batch(tmp_path)
    args = ["metrics", "--in", tmp_path / "*.hsmx", "--stride", "8", "--center", center]
    code, _, data, report = worker_counts_agree(args, tmp_path, program=("-c", NUMPY_QR))
    assert code == 0 and report["qr"] == "numpy"
    assert report["rows"] == {"ok": 4, "error": 2}
    # The default QR path, in-process, agrees with the fallback's CSV.
    out = tmp_path / "default.csv"
    assert main([str(a) for a in args] + ["--out", str(out)]) == 0
    default, fallback = read_csv(out), list(csv.reader(data.decode().splitlines()))
    assert len(default) == len(fallback) == 7
    for got, want in zip(default[1:], fallback[1:]):
        assert got[:3] + got[6:] == want[:3] + want[6:]
        values = [[float(v or "nan") for v in row[3:6]] for row in (got, want)]
        np.testing.assert_allclose(*values, rtol=0, atol=1e-10)


NUMPY_EIG = "from rankdyn import cli, lapack; lapack.eig_kernel = lambda: None; cli.run()"


@pytest.mark.parametrize("center", ["raw", "rowmean"])
def test_numpy_eig_fallback_keeps_the_bytes(tmp_path, center):
    write_mixed_batch(tmp_path)
    args = ["metrics", "--in", tmp_path / "*.hsmx", "--stride", "8", "--center", center,
            "--engine", "incremental"]
    code, _, data, report = worker_counts_agree(args, tmp_path, program=("-c", NUMPY_EIG))
    assert code == 0 and report["eig"] == "numpy" and report["qr"] is None
    out = tmp_path / "default.csv"
    assert main([str(a) for a in args] + ["--out", str(out)]) == 0
    assert out.read_bytes() == data


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
    assert report["rows"] == {"ok": 4, "error": 1}
    assert set(report["stage_s"]) == {"read", "metrics", "shaping", "write"}


# read_matrix raises a MemoryError on the file named fail_on.
NO_MEMORY_CLI = """
from rankdyn import cli
read_matrix = cli.read_matrix

def no_memory(path):
    if path.endswith({fail_on!r}):
        raise MemoryError("cannot allocate")
    return read_matrix(path)

cli.read_matrix = no_memory
cli.run()
"""


def test_shape_keeps_a_failed_rollout_as_a_short_one(tmp_path):
    # A file with trailing bytes, a missing file and a read that raises
    # MemoryError each give the row a short rollout gives in its place: a_hat =
    # a0, d0..phi empty, and the EMA skips it, so every other row is unchanged.
    a, b, c, d, short, trailing = write_mixed_batch(tmp_path)
    gone, no_memory = tmp_path / "gone.hsmx", tmp_path / "g.hsmx"
    no_memory.write_bytes(a.read_bytes())
    program = ("-c", NO_MEMORY_CLI.format(fail_on="g.hsmx"))
    runs = []
    for paths in ([a, trailing, b, gone, c, no_memory, d, short],
                  [a, short, b, short, c, short, d, short]):
        manifest = tmp_path / "m.txt"
        manifest.write_text("".join(f"{p},g{i // 4},{i % 2},1\n" for i, p in enumerate(paths)))
        runs.append(worker_counts_agree(
            ["shape", "--manifest", manifest, "--stride", "8"], tmp_path, program=program
        ))
    (code, stderr, data, report), reference = runs
    assert code == reference[0] == 0
    rows, unshaped = data.decode().splitlines(), reference[2].decode().splitlines()
    assert len(rows) == len(unshaped) == 9
    for i, (got, want) in enumerate(zip(rows, unshaped)):
        if i in (2, 4, 6):  # trailing, gone, no_memory
            assert got.split(",")[1:] == want.split(",")[1:]
        else:
            assert got == want
    too_short = "TrajectoryTooShort: trajectory of 8 rows yields no eval step at stride 8"
    assert reference[1] == f"warning: {short}: {too_short}\n" * 4
    assert stderr == "".join(f"warning: {line}\n" for line in [
        f"{trailing}: FormatError: 1 trailing bytes after the payload (byte offset {TAIL})",
        f"{gone}: FileNotFoundError: [Errno 2] No such file or directory: '{gone}'",
        f"{no_memory}: MemoryError: cannot allocate",
        f"{short}: {too_short}",
    ])
    assert report["rows"] == {"ok": 4, "error": 4}
    assert report["errors"] == {"FileNotFoundError": 1, "FormatError": 1, "MemoryError": 1,
                                "TrajectoryTooShort": 1}


def test_metric_phase_gives_every_trajectory_one_row_shape(tmp_path):
    # Every trajectory's row is (T, D, er, erv, era, error): a failed one has
    # no metrics, and its error is the (error type name, message) pair.
    ok, gone, short = tmp_path / "ok.hsmx", tmp_path / "gone.hsmx", tmp_path / "short.hsmx"
    write_trajectory(ok, 96, 4, seed=0)
    write_trajectory(short, 8, 4, seed=1)
    paths = [str(ok), str(gone), str(short)]
    rows, report = cli.metric_phase(paths, 8, Centering.RAW, Engine.FACTOR, fork=False)
    final_er, series = trajectory_metrics(read_matrix(ok), 8)
    assert rows[0] == (96, 4, final_er, series.velocity, series.acceleration, None)
    assert [row[:5] for row in rows[1:]] == [(None,) * 5] * 2
    assert rows[1][5] == ("FileNotFoundError", f"[Errno 2] No such file or directory: '{gone}'")
    assert rows[2][5] == ("TrajectoryTooShort",
                          "trajectory of 8 rows yields no eval step at stride 8")
    assert report["rows"] == {"ok": 1, "error": 2}
    assert report["errors"] == {"FileNotFoundError": 1, "TrajectoryTooShort": 1}


def test_main_keeps_metric_phase_in_process(tmp_path):
    write_mixed_batch(tmp_path)
    stats = tmp_path / "stats.json"
    args = ["--in", str(tmp_path / "*.hsmx"), "--out", str(tmp_path / "m.csv")]
    assert main(["metrics", *args, "--stride", "8", "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["workers"] == 1


# Each read_matrix call leaves a file named after the trajectory, the pid and
# the call, and the file named fail_on raises a LinAlgError. After the run, the
# CLI checks that it has no child left, reaped or not.
COUNT_READS_CLI = """
import itertools, os, sys
from numpy.linalg import LinAlgError
from rankdyn import cli

read_matrix = cli.read_matrix
calls = itertools.count()

def counted(path):
    name = os.path.basename(path)
    open(os.path.join({reads!r}, f"{{name}}-{{os.getpid()}}-{{next(calls)}}"), "w").close()
    if name == {fail_on!r}:
        raise LinAlgError("SVD did not converge")
    return read_matrix(path)

cli.read_matrix = counted
try:
    cli.run()
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left", file=sys.stderr)
    except ChildProcessError:
        pass
"""

needs_two_workers = pytest.mark.skipif(
    usable_cpus() < 2 or openblas() is None,
    reason="needs a forking metric phase (two CPUs, a pinnable BLAS)",
)


def counting_cli(tmp_path, fail_on=None):
    """(program, reads directory) for run_cli: COUNT_READS_CLI on a fresh directory."""
    reads = tmp_path / "reads"
    reads.mkdir()
    return ("-c", COUNT_READS_CLI.format(reads=str(reads), fail_on=fail_on)), reads


def write_batch(tmp_path, lengths, cols=64):
    for i, rows in enumerate(lengths):
        write_trajectory(tmp_path / f"t{i:02d}.hsmx", rows, cols, seed=i)
    return tmp_path / "*.hsmx"


@needs_two_workers
def test_forked_phase_stops_at_a_bad_stride(tmp_path):
    batch = write_batch(tmp_path, [200] * 16)
    program, reads = counting_cli(tmp_path)
    out = tmp_path / "m.csv"
    proc = run_cli("metrics", "--in", batch, "--out", out, "--stride", "0", program=program)
    assert (proc.returncode, proc.stderr) == (2, "error: stride must be >= 1\n")
    assert not out.exists()
    assert list(reads.iterdir()) == []  # checked before any file is read


@needs_two_workers
def test_forked_phase_writes_a_raising_job_as_its_row(tmp_path):
    batch = write_batch(tmp_path, [200] * 6)
    clean = worker_counts_agree(["metrics", "--in", batch], tmp_path)[2].decode().splitlines()
    program, reads = counting_cli(tmp_path, fail_on="t02.hsmx")
    code, stderr, data, report = worker_counts_agree(
        ["metrics", "--in", batch], tmp_path, program=program
    )
    assert (code, stderr, report["errors"]) == (0, "", {"LinAlgError": 1})
    rows = data.decode().splitlines()
    assert rows[3] == "t02,,,,,,LinAlgError: SVD did not converge"
    assert rows[:3] + rows[4:] == clean[:3] + clean[4:]
    # Every file is read once in-process and once by the pool.
    read = sorted(p.name.split(".")[0] for p in reads.iterdir())
    assert read == sorted(2 * [f"t{i:02d}" for i in range(6)])


@needs_two_workers
def test_forked_phase_keeps_input_order_on_uneven_lengths(tmp_path):
    lengths = [900, 41, 700, 90, 50, 600, 45, 300]
    batch = write_batch(tmp_path, lengths, cols=32)
    program, reads = counting_cli(tmp_path)
    code, stderr, data, report = worker_counts_agree(
        ["metrics", "--in", batch, "--engine", "incremental"], tmp_path, program=program
    )
    assert (code, stderr, report["workers"]) == (0, "", min(usable_cpus(), report["jobs"]))
    rows = list(csv.reader(data.decode().splitlines()))[1:]
    assert [(r[0], int(r[1])) for r in rows] == [(f"t{i:02d}", t) for i, t in enumerate(lengths)]
    # The in-process run reads each file once, the pool once per job: a split
    # trajectory's ranges each read it.
    assert len(list(reads.iterdir())) == len(lengths) + report["jobs"]


@needs_two_workers
def test_a_trajectory_heavier_than_its_share_runs_on_several_workers(tmp_path):
    # Alone in its batch, a trajectory holds the whole batch's cost, so it is
    # cut, and even one rollout runs on two workers.
    batch = write_batch(tmp_path, [600], cols=48)
    program, reads = counting_cli(tmp_path)
    code, stderr, data, report = worker_counts_agree(
        ["metrics", "--in", batch, "--stride", "8"], tmp_path, program=program
    )
    assert (code, stderr, report["split"]) == (0, "", 1)
    assert report["workers"] >= 2  # min(usable CPUs, jobs): 2 on two CPUs
    assert report["rows"] == {"ok": 1, "error": 0}
    assert len(list(reads.iterdir())) == 1 + report["jobs"]


@pytest.mark.skipif(openblas() is None, reason="plans jobs only with a pinnable BLAS")
@pytest.mark.parametrize("engine", Engine)
@pytest.mark.parametrize("center", Centering)
@pytest.mark.parametrize("rows,cols", [(40, 48), (90, 12)], ids=["T<D", "T>D"])
def test_split_and_unsplit_give_the_same_rows(tmp_path, monkeypatch, engine, center, rows, cols):
    path = tmp_path / "t.hsmx"
    write_trajectory(path, rows, cols, seed=rows)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "fork_map", lambda jobs, workers: [job() for job in jobs])
    whole, _ = cli.metric_phase([str(path)], 1, center, engine, fork=False)
    split, report = cli.metric_phase([str(path)], 1, center, engine, fork=True)
    assert report["split"] == 1 and report["jobs"] >= 2
    assert split == whole and whole[0][:2] == (rows, cols) and whole[0][4] is not None


# The solve of a T <= D prefix of any of the lengths fail_at raises a
# LinAlgError that names the length, on the engine whose module is patched.
FAILING_SOLVE_CLI = """
from numpy.linalg import LinAlgError
from rankdyn import cli, {module}

summary = {module}.summary_from_singular_values

def failing(sigma):
    if len(sigma) in {fail_at!r}:
        raise LinAlgError(f"SVD did not converge at t={{len(sigma)}}")
    return summary(sigma)

{module}.summary_from_singular_values = failing
cli.run()
"""


@needs_two_workers
@pytest.mark.parametrize("engine,module", [("naive", "dynamics"), ("incremental", "gram_stream")])
def test_a_split_trajectory_keeps_the_error_of_its_earliest_failing_end(tmp_path, engine, module):
    # Ends 64 and 192 of 200 fall in the earliest and the latest range, and the
    # unsplit walk stops at 64.
    batch = write_batch(tmp_path, [200], cols=256)
    program = ("-c", FAILING_SOLVE_CLI.format(module=module, fail_at=(64, 192)))
    code, stderr, data, report = worker_counts_agree(
        ["metrics", "--in", batch, "--stride", "8", "--engine", engine], tmp_path, program=program
    )
    assert (code, stderr, report["split"]) == (0, "", 1)
    assert data.decode().splitlines()[1] == "t00,,,,,,LinAlgError: SVD did not converge at t=64"


@needs_two_workers
def test_a_header_that_claims_too_many_rows_is_one_job(tmp_path):
    # 92 bytes: one row of 8 float64s, whose header claims 2^28 rows. The plan
    # trusts no header that read_matrix would reject, so the file is one job,
    # planned at no cost, and costs its row as at a plan that reads no header.
    write_matrix(HiddenStateMatrix(np.ones((1, 8))), tmp_path / "big.hsmx")
    raw = bytearray((tmp_path / "big.hsmx").read_bytes())
    raw[12:20] = (2**28).to_bytes(8, "little")
    (tmp_path / "big.hsmx").write_bytes(raw)
    write_trajectory(tmp_path / "good.hsmx", 300, 16, seed=0)
    paths = [str(tmp_path / "big.hsmx"), str(tmp_path / "good.hsmx")]
    jobs = cli.plan_jobs(paths, 40, Centering.RAW, cpus=2)
    assert jobs[0] == (0, None) and [i for i, _ in jobs[1:]] == [1] * (len(jobs) - 1)
    code, _, data, report = worker_counts_agree(["metrics", "--in", tmp_path / "*.hsmx"], tmp_path)
    truncated = "payload holds 8 scalars, header declares 2147483648 (byte offset 92)"
    rows = list(csv.reader(data.decode().splitlines()))
    assert rows[1] == ["big", *[""] * 5, f"TruncatedPayload: {truncated}"]
    assert report["rows"] == {"ok": 1, "error": 1}


def sparse_batch(tmp_path, name, lengths, dims, dtype):
    """Files whose headers declare these shapes, the payloads left as holes."""
    paths = []
    for i, rows in enumerate(lengths):
        path = tmp_path / f"{name}{i:02d}.hsmx"
        itemsize = 8 if dtype == "f64" else 4
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIBBHQQ", b"HSMX", 1, itemsize == 4, 0, 0, rows, dims))
            fh.truncate(HEADER_SIZE + rows * dims * itemsize)
        paths.append(str(path))
    return paths


# Batches shaped as perfbench's workloads at seed 2437: (lengths, D, dtype,
# centering, which trajectories are cut on 2, 4 and 16 CPUs). The plan does not
# depend on the engine.
WORKLOAD_SHAPES = {
    "shape-step": ([407, 241, 228, 185, 179, 152, 148, 128, 125, 108, 105, 90, 87, 71, 68, 45],
                   4096, "f32", Centering.RAW, {2: [], 4: [], 16: []}),
    "metrics-long": ([2569, 1630], 256, "f64", Centering.RAW, {2: [0], 4: [0, 1], 16: [0, 1]}),
    "metrics-stream-centered": ([972, 885], 1024, "f32", Centering.ROW_MEAN_CENTERED,
                                {2: [0], 4: [0, 1], 16: [0, 1]}),
}


@pytest.mark.parametrize("cpus", [2, 4, 16])
@pytest.mark.parametrize("workload", WORKLOAD_SHAPES)
def test_plan_on_workload_shaped_headers(tmp_path, workload, cpus):
    # shape-step's row factor costs more than all its solves, so no cut pays
    # for its rebuild on any CPU count.
    lengths, dims, dtype, center, cut = WORKLOAD_SHAPES[workload]
    paths = sparse_batch(tmp_path, workload, lengths, dims, dtype)
    jobs = cli.plan_jobs(paths, 40, center, cpus)
    assert cli.plan_jobs(paths, 40, center, cpus=1) == [(i, None) for i in range(len(paths))]
    assert sorted({i for i, solve in jobs if solve is not None}) == cut[cpus]
    assert [i for i, _ in jobs] == sorted(i for i, _ in jobs)  # in input order
    assert [i for i, solve in jobs if solve is None] == [i for i in range(len(paths)) if i not in cut[cpus]]
    for index in cut[cpus]:
        ranges = [solve for i, solve in jobs if i == index]
        steps = eval_steps(lengths[index], 40, center)
        head, build, solve = walk_flops(lengths[index], dims, steps)
        # Contiguous, latest first, covering every end once, and each range
        # solves more than it rebuilds.
        bounds = [0] + [part.stop for part in reversed(ranges)]
        assert [(s.start, s.stop) for s in reversed(ranges)] == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == len(steps) + 1
        assert all(solve[part].sum() > head + build[: part.stop].sum() for part in ranges)


# Runs body, then checks that no child is left, reaped or not.
FORK_MAP_PROGRAM = """
import errno, functools, json, os, sys, time
from rankdyn import cli
{body}
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left", file=sys.stderr)
except ChildProcessError:
    pass
"""


def run_fork_map(body):
    """fork_map called by body in a child interpreter: (stdout, stderr)."""
    proc = run_cli(program=("-c", FORK_MAP_PROGRAM.format(body=inspect.cleandoc(body))))
    assert proc.returncode == 0
    return proc.stdout, proc.stderr


def test_fork_map_keeps_input_order_on_uneven_job_times():
    seconds = [0.3, 0.0, 0.2, 0.0, 0.1, 0.0, 0.0, 0.05]
    stdout, stderr = run_fork_map(f"""
        def nap(seconds):
            time.sleep(seconds)
            return seconds, os.getpid()
        jobs = [functools.partial(nap, s) for s in {seconds!r}]
        print(json.dumps([os.getpid(), cli.fork_map(jobs, 2)]))
    """)
    parent, results = json.loads(stdout)
    assert stderr == "" and [s for s, _ in results] == seconds
    assert parent not in {pid for _, pid in results}


def test_fork_map_fails_as_a_dead_worker_when_a_job_raises():
    stdout, stderr = run_fork_map("""
        def job(i):
            if i == 3:
                raise MemoryError(f"no room for job {i}")
            return i
        try:
            cli.fork_map([functools.partial(job, i) for i in range(8)], 2)
        except cli.WorkerDied as exc:
            print(type(exc).__name__, exc)
    """)
    assert (stdout, stderr) == ("WorkerDied a metric worker died with exit code 1\n", "")


@pytest.mark.skipif(sys.platform != "linux", reason="counts open fds in /proc/self/fd")
def test_fork_map_closes_its_pipes_when_fork_fails():
    stdout, stderr = run_fork_map("""
        fork, calls = os.fork, []
        def fork_once():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()
        os.fork = fork_once
        before = len(os.listdir("/proc/self/fd"))
        try:
            cli.fork_map([functools.partial(abs, i) for i in (-1, -2, -3)], 2)
        except OSError as exc:
            print(errno.errorcode[exc.errno], len(os.listdir("/proc/self/fd")) - before)
    """)
    assert (stdout, stderr) == ("EAGAIN 0\n", "")


# Every worker dies with exit code 3 at its first read. After the run, the CLI
# checks that it has no child left, reaped or not.
DEAD_WORKER_CLI = """
import os, sys
from rankdyn import cli

cli.read_matrix = lambda path: os._exit(3)
try:
    cli.run()
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left", file=sys.stderr)
    except ChildProcessError:
        pass
"""


@needs_two_workers
def test_dead_worker_fails_the_run(tmp_path):
    write_mixed_batch(tmp_path)
    out, stats = tmp_path / "m.csv", tmp_path / "stats.json"
    proc = run_cli("metrics", "--in", tmp_path / "*.hsmx", "--out", out, "--stats", stats,
                   program=("-c", DEAD_WORKER_CLI))
    assert proc.returncode == 2
    assert proc.stderr == "error: a metric worker died with exit code 3\n"
    assert not out.exists() and not stats.exists()


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
