"""Command-line front end.

Subcommands::

    metrics  --in <glob> --out <csv>      per-trajectory er/erv/era table
    shape    --manifest <path> --out <csv>  full shaping pipeline over a batch
    verify   [--suite name] [--seed N]    run the self-check suites

Manifest format: one record per line, `path,group_id,is_correct(0|1),has_boxed(0|1)`,
`#` starts a comment. Floats are rendered with 17 significant digits so CSVs
round-trip doubles bit-exactly.

`metrics` writes each trajectory's metrics (`metric_phase`); `shape` adds
GRPO, the EMA and shaping. Only the program entry point `run` forks workers
for the metric phase (rankdyn.batch plans, runs and joins its jobs); `main`
runs it in-process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob as globlib
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verify as verifymod
from .batch import fork_map, join_ranges, plan_jobs, usable_cpus
from .dynamics import DEFAULT_STRIDE, Engine, prefix_eranks, require_stride, trajectory_metrics
from .errors import GroupTooSmall, ManifestError, RankdynError
from .shaping import (
    EmaState,
    ShapingConfig,
    grpo_group_advantage,
    rule_reward,
    shape_from_metrics,
)
from .spectral import Centering
from .tensor_io import read_matrix

METRICS_HEADER = ["id", "T", "D", "er", "erv", "era", "error"]
SHAPE_HEADER = ["id", "group", "reward", "a0", "d0", "d1", "d2", "beta", "phi", "a_hat"]


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def trajectory_job(path: str, stride: int, centering: Centering, engine: Engine,
                   solve: slice | None = None) -> tuple:
    """Metric phase of one trajectory, or of the prefix ends `solve` of it:
    (values, read seconds, metric seconds).

    values is a job value as rankdyn.batch's docstring states it: (T, D, the
    ERs of its ends), or (error type name, message) for any Exception. This
    is the one place a trajectory's failure becomes a value.
    """
    clock = [time.perf_counter()]
    try:
        matrix = read_matrix(path)
        clock.append(time.perf_counter())
        if solve is None:
            # perfbench's dynamics.trajectory and dynamics.prefix spans hang on this call.
            final_er, series = trajectory_metrics(matrix, stride, centering, engine)
            eranks = np.append(series.prefix_values, final_er)
        else:
            eranks = prefix_eranks(matrix, stride, centering, engine, solve)
        values = (matrix.rows, matrix.cols, eranks)
    except Exception as exc:
        values = (type(exc).__name__, str(exc))
    clock.append(time.perf_counter())
    return values, clock[1] - clock[0], clock[-1] - clock[1]


def metric_phase(
    paths: list[str], stride: int, centering: Centering, engine: Engine, fork: bool
) -> tuple[list[tuple], dict]:
    """Each path's row (T, D, er, erv, era, error), in input order, and the run report.

    With fork, the jobs of plan_jobs run on one worker per usable CPU and job
    at most (fork_map; a spawned one would import numpy anew). join_ranges
    makes each trajectory's row from its jobs. A bad stride raises before
    any file is read; a trajectory that fails is a row with no metrics and
    its error set, counted in the report's rows and errors. BLAS runs on
    one thread on every path, so no float depends on the worker count; with
    no known BLAS to pin, all runs in-process.
    """
    from .lapack import core_name, eig_kernel, qr_kernels, single_threaded_blas

    require_stride(stride)
    start = time.perf_counter()
    with single_threaded_blas() as pinned:
        # Resolved before any fork, so the workers inherit the bound kernels.
        qr = ("lapack" if qr_kernels() else "numpy") if engine is Engine.FACTOR else None
        eig = ("lapack" if eig_kernel() else "numpy") if engine is Engine.INCREMENTAL_GRAM else None
        cpus = usable_cpus() if pinned and fork else 1
        plan = plan_jobs(paths, stride, centering, cpus)
        jobs = [functools.partial(trajectory_job, paths[index], stride, centering, engine, solve)
                for index, solve in plan]
        workers = min(cpus, len(jobs))
        if workers == 1:
            results = [job() for job in jobs]
        else:
            results = fork_map(jobs, workers)
    pieces: list[list[tuple]] = [[] for _ in paths]
    for (index, _), (values, _, _) in zip(plan, results):
        pieces[index].append(values)
    rows = [join_ranges(got) for got in pieces]
    errors = [row[5][0] for row in rows if row[5]]
    report = {
        "engine": engine.value,
        "workers": workers,
        "jobs": len(jobs),
        "split": sum(len(got) > 1 for got in pieces),
        "blas_pinned": pinned,
        "blas_core": core_name(),
        "qr": qr,
        "eig": eig,
        "metric_phase_s": time.perf_counter() - start,
        "stage_s": {"read": sum(r[1] for r in results), "metrics": sum(r[2] for r in results)},
        "errors": {name: errors.count(name) for name in sorted(set(errors))},
        "rows": {"ok": len(rows) - len(errors), "error": len(errors)},
    }
    return rows, report


def _check_paths(args: argparse.Namespace, trajectories: list[str], *inputs: str) -> None:
    """Fail before the metric phase, writing nothing, if two trajectories share
    a stem (their rows' id), an output is empty, a directory, a symlink loop or
    in a missing one, --out and --stats are one file, or an output is an input."""
    first: dict[str, str] = {}
    for path in trajectories:
        other = first.setdefault(Path(path).stem, path)
        if other != path and os.path.realpath(other) != os.path.realpath(path):
            raise ValueError(f"{other} and {path} both have the id {Path(path).stem!r}")
    paths = [path for path in (args.out, args.stats) if path is not None]
    read = {Path(os.path.realpath(path)) for path in [*trajectories, *inputs]}
    for path in paths:
        if not path:
            raise ValueError("an output path is empty")
        target = Path(os.path.realpath(path))  # where open writes, through any symlink
        if target.is_symlink():  # realpath leaves a link of a symlink loop unresolved
            raise OSError(f"{path}: is a symlink loop")
        if not target.parent.is_dir():
            raise FileNotFoundError(f"{path}: no such directory {target.parent}")
        if Path(path).is_dir():
            raise IsADirectoryError(f"{path}: is a directory")
        if target in read:
            raise ValueError(f"{path}: is an input of this run")
    if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ValueError(f"--out {paths[0]} and --stats {paths[1]} are the same file")


def _finish(args: argparse.Namespace, header: list[str], rows: list[list[str]],
            report: dict) -> int:
    """Write the CSV, then the --stats report."""
    write_start = time.perf_counter()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if args.stats is not None:
        import json

        report["stage_s"]["write"] = time.perf_counter() - write_start
        Path(args.stats).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    paths = sorted(globlib.glob(args.input))
    _check_paths(args, paths)
    if not paths:
        raise FileNotFoundError(f"no files match {args.input!r}")
    results, report = metric_phase(
        paths, args.stride, Centering(args.center), Engine(args.engine), args.fork
    )
    rows = []
    for path, row in zip(paths, results):
        error = "{}: {}".format(*row[5]) if row[5] else ""
        rows.append([Path(path).stem, *map(_fmt, row[:5]), error])
    return _finish(args, METRICS_HEADER, rows, report)


@dataclass
class ManifestEntry:
    path: str
    group: str
    is_correct: bool
    has_boxed: bool


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if (len(parts) != 4 or not all(parts)  # an empty path or group id
                or parts[2] not in ("0", "1") or parts[3] not in ("0", "1")):
            raise ManifestError(f"{path}:{lineno}: malformed record {line!r}")
        entries.append(ManifestEntry(parts[0], parts[1], parts[2] == "1", parts[3] == "1"))
    if not entries:
        raise ManifestError(f"{path}: manifest holds no records")
    return entries


def cmd_shape(args: argparse.Namespace) -> int:
    config = ShapingConfig(
        kappa=args.kappa,
        epsilon=args.eps,
        pre_update_deviation=args.pre_update_deviation,
    )
    # EMA baselines evolve in manifest order across the whole run.
    state = EmaState(gamma=args.gamma)
    entries = read_manifest(args.manifest)
    paths = [e.path for e in entries]
    _check_paths(args, paths, args.manifest)

    # Rewards and group-relative base advantages, grouped by prompt id.
    rewards = [rule_reward(e.is_correct, e.has_boxed) for e in entries]
    groups: dict[str, list[int]] = {}
    for idx, entry in enumerate(entries):
        groups.setdefault(entry.group, []).append(idx)
    base = [0.0] * len(entries)
    for group_id, members in groups.items():
        if args.group_size is not None and len(members) != args.group_size:
            raise GroupTooSmall(
                f"group {group_id!r} has {len(members)} rollouts, expected {args.group_size}"
            )
        advantages = grpo_group_advantage([rewards[i] for i in members])
        for i, adv in zip(members, advantages):
            base[i] = adv

    results, report = metric_phase(
        paths, args.stride, Centering(args.center), Engine(args.engine), args.fork
    )
    shaping_start = time.perf_counter()
    rows = []
    for entry, reward, a0, row in zip(entries, rewards, base, results):
        if row[5]:  # a failed rollout: its metrics are None
            print("warning: {}: {}: {}".format(entry.path, *row[5]), file=sys.stderr)
        outcome, state = shape_from_metrics(*row[2:5], a0, state, config)
        shaped = (outcome.a0, outcome.d0, outcome.d1, outcome.d2, outcome.beta, outcome.phi,
                  outcome.a_hat)
        rows.append([Path(entry.path).stem, entry.group, _fmt(reward), *map(_fmt, shaped)])
    report["stage_s"]["shaping"] = time.perf_counter() - shaping_start
    return _finish(args, SHAPE_HEADER, rows, report)


def cmd_verify(args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else verifymod.SUITES
    results = {name: verifymod.SUITES[name](args.seed) for name in names}
    failed = 0
    for name, (passed, detail) in results.items():
        status = "pass" if passed else "FAIL"
        print(f"{name},{status},{detail}")
        failed += not passed
    print(f"overall,{'pass' if failed == 0 else 'FAIL'},{len(results) - failed}/{len(results)}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankdyn")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metric_flags(p):
        p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
        p.add_argument("--center", choices=[c.value for c in Centering],
                       default=Centering.RAW.value)
        p.add_argument("--engine", choices=[e.value for e in Engine],
                       default=Engine.FACTOR.value)
        p.add_argument("--stats", help="write a JSON run report (stage times, row counts) here")

    p = sub.add_parser("metrics", help="per-trajectory metric table from HSMX files")
    p.add_argument("--in", dest="input", required=True, help="input file glob")
    p.add_argument("--out", required=True, help="output CSV path")
    add_metric_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("shape", help="run the advantage-shaping pipeline over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kappa", type=float, default=ShapingConfig.kappa)
    p.add_argument("--gamma", type=float, default=EmaState.gamma)
    p.add_argument("--eps", type=float, default=ShapingConfig.epsilon)
    p.add_argument("--group-size", type=int, default=None)
    p.add_argument("--pre-update-deviation", action="store_true")
    add_metric_flags(p)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=sorted(verifymod.SUITES), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None, fork: bool = False) -> int:
    """Run one command. fork lets the metric phase fork workers (see metric_phase)."""
    args = build_parser().parse_args(argv)
    args.fork = fork
    try:
        return args.func(args)
    except (RankdynError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Program entry point: the process is the CLI's own, so it may fork."""
    sys.exit(main(fork=True))


if __name__ == "__main__":
    run()
