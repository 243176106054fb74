"""Command-line front end.

Subcommands::

    metrics  --in <glob> --out <csv>      per-trajectory er/erv/era table
    shape    --manifest <path> --out <csv>  full shaping pipeline over a batch
    verify   [--suite name] [--seed N]    run the self-check suites
    bench    [--grid spec] --out <csv>    naive vs incremental construction timing
    synth    --spec <string> --seed N --out <path>   write synthetic HSMX files

Manifest format: one record per line, `path,group_id,is_correct(0|1),has_boxed(0|1)`,
`#` starts a comment. Floats are rendered with 17 significant digits so CSVs
round-trip doubles bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import glob as globlib
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bench as benchmod
from . import verify as verifymod
from .dynamics import DEFAULT_STRIDE, Engine, trajectory_metrics
from .errors import GroupTooSmall, ManifestError, RankdynError, TrajectoryTooShort
from .shaping import (
    EmaState,
    ShapingConfig,
    grpo_group_advantage,
    rule_reward,
    shape_from_metrics,
)
from .spectral import Centering
from .tensor_io import (
    GaussianIID,
    LowRank,
    OrthogonalRows,
    generate_synthetic,
    read_matrix,
    write_matrix,
)

METRICS_HEADER = ["id", "T", "D", "er", "erv", "era", "error"]
SHAPE_HEADER = ["id", "group", "reward", "a0", "d0", "d1", "d2", "beta", "phi", "a_hat"]


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def cmd_metrics(args: argparse.Namespace) -> int:
    paths = sorted(globlib.glob(args.input))
    if not paths:
        print(f"error: no files match {args.input!r}", file=sys.stderr)
        return 2
    rows = []
    for path in paths:
        ident = Path(path).stem
        try:
            matrix = read_matrix(path)
            final_er, series = trajectory_metrics(
                matrix, args.stride, Centering(args.center), Engine(args.engine)
            )
            rows.append(
                [
                    ident,
                    str(matrix.rows),
                    str(matrix.cols),
                    _fmt(final_er),
                    _fmt(series.velocity),
                    _fmt(series.acceleration),
                    "",
                ]
            )
        except RankdynError as exc:
            rows.append([ident, "", "", "", "", "", f"{type(exc).__name__}: {exc}"])
    _write_csv(args.out, METRICS_HEADER, rows)
    return 0


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
        if len(parts) != 4 or parts[2] not in ("0", "1") or parts[3] not in ("0", "1"):
            raise ManifestError(f"{path}:{lineno}: malformed record {line!r}")
        entries.append(ManifestEntry(parts[0], parts[1], parts[2] == "1", parts[3] == "1"))
    if not entries:
        raise ManifestError(f"{path}: manifest holds no records")
    return entries


def cmd_shape(args: argparse.Namespace) -> int:
    config = ShapingConfig(
        kappa=args.kappa,
        epsilon=args.eps,
        gamma=args.gamma,
        stride=args.stride,
        centering=Centering(args.center),
        engine=Engine(args.engine),
        literal_zero_init=args.literal_ema_init,
        pre_update_deviation=args.pre_update_deviation,
    )
    entries = read_manifest(args.manifest)

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

    # EMA evolves in manifest order across the whole run.
    state = EmaState(gamma=config.gamma, literal_zero_init=config.literal_zero_init)
    rows = []
    for entry, reward, a0 in zip(entries, rewards, base):
        matrix = read_matrix(entry.path)
        head = [Path(entry.path).stem, entry.group, _fmt(reward), _fmt(a0)]
        try:
            final_er, series = trajectory_metrics(
                matrix, config.stride, config.centering, config.engine
            )
        except TrajectoryTooShort:
            # No stride-aligned prefix: shaping is skipped and the EMA is left as is.
            rows.append(head + [""] * 5 + [_fmt(a0)])
            continue
        outcome, state = shape_from_metrics(
            final_er, series.velocity, series.acceleration, a0, state, config
        )
        shaped = (outcome.d0, outcome.d1, outcome.d2, outcome.beta, outcome.phi, outcome.a_hat)
        rows.append(head + [_fmt(v) for v in shaped])
    _write_csv(args.out, SHAPE_HEADER, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else None
    results = verifymod.run_suites(names, seed=args.seed, inject_fault=args.inject_fault)
    failed = 0
    for name, (passed, detail) in results.items():
        status = "pass" if passed else "FAIL"
        print(f"{name},{status},{detail}")
        failed += not passed
    print(f"overall,{'pass' if failed == 0 else 'FAIL'},{len(results) - failed}/{len(results)}")
    return 0 if failed == 0 else 1


def _parse_grid(spec: str) -> tuple[list[int], int, int]:
    """Parse 'T=512,1024,2048;D=256;s=32' into (sizes, dims, stride)."""
    sizes, dims, stride = [512, 1024, 2048], 256, 32
    for part in spec.split(";"):
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "T":
            sizes = [int(v) for v in value.split(",")]
        elif key == "D":
            dims = int(value)
        elif key == "s":
            stride = int(value)
        else:
            raise ValueError(f"unknown grid key {key!r}")
    return sizes, dims, stride


def cmd_bench(args: argparse.Namespace) -> int:
    sizes, dims, stride = _parse_grid(args.grid)
    results = benchmod.run_grid(sizes, dims, stride, repeats=args.repeats, seed=args.seed)
    rows = [
        [
            str(r.rows),
            str(r.dims),
            str(r.stride),
            _fmt(r.naive_seconds),
            _fmt(r.incremental_seconds),
            _fmt(r.ratio),
        ]
        for r in results
    ]
    _write_csv(args.out, ["T", "D", "s", "naive_s", "incremental_s", "ratio"], rows)
    for row in rows:
        print(",".join(row))
    return 0


def parse_generator_spec(text: str) -> object:
    """Parse e.g. 'orthogonal:k=16,D=64,row_norm=1.0' into a generator spec."""
    kind, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            params[key.strip()] = value.strip()
    try:
        if kind == "orthogonal":
            return OrthogonalRows(
                int(params["k"]), int(params["D"]), float(params.get("row_norm", "1.0"))
            )
        if kind == "gaussian":
            return GaussianIID(
                int(params["T"]), int(params["D"]), float(params.get("sigma", "1.0"))
            )
        if kind == "lowrank":
            return LowRank(int(params["T"]), int(params["D"]), int(params["r"]))
    except KeyError as exc:
        raise ValueError(f"generator spec {text!r} is missing parameter {exc}") from exc
    raise ValueError(f"unknown generator kind {kind!r}")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = parse_generator_spec(args.spec)
    matrix = generate_synthetic(spec, args.seed)
    write_matrix(matrix, args.out)
    print(f"wrote {matrix.rows}x{matrix.cols} matrix to {args.out}")
    return 0


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankdyn")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metric_flags(p):
        p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
        p.add_argument("--center", choices=["raw", "rowmean"], default="raw")
        p.add_argument("--engine", choices=["naive", "incremental"], default="naive")

    p = sub.add_parser("metrics", help="per-trajectory metric table from HSMX files")
    p.add_argument("--in", dest="input", required=True, help="input file glob")
    p.add_argument("--out", required=True, help="output CSV path")
    add_metric_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("shape", help="run the advantage-shaping pipeline over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--group-size", type=int, default=None)
    p.add_argument("--literal-ema-init", action="store_true")
    p.add_argument("--pre-update-deviation", action="store_true")
    add_metric_flags(p)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=sorted(verifymod.SUITES), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="naive vs incremental Gram construction timing")
    p.add_argument("--grid", default="T=512,1024,2048;D=256;s=32")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="write a synthetic HSMX file")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RankdynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
