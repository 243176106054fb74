"""End-to-end benchmark of the rankdyn CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload metrics-long --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. With ``--trace 0`` the benchmark drives
``python -m rankdyn.cli`` as fresh processes in a closed loop from one
client (each invocation starts after the previous one exits, as a trainer
waits for its shaped advantages) and reports the end-to-end metrics. With
``--trace 1`` it calls ``rankdyn.cli.main`` in-process, alternating traced
and untraced cycles, and reports the per-layer metrics. Every output is
checked against a float64 SVD oracle. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
from inputs import Workload, prepare

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
# setup_s is sampled once before every invocation, and at least this many
# times in a run, so its median spans the whole run rather than its start.
SETUP_REPEATS = 15

WORKLOADS = {
    w.name: w
    for w in [
        # The prefix spectral solve dominates (T > D): the workload for an
        # engine that beats per-prefix SVD.
        Workload("metrics-long", "metrics", dims=256, dtype="f64", t_median=2048,
                 t_sigma=0.35, t_min=1024, t_max=4096, batches=1, per_batch=2),
        # One RL step per invocation: 2 prompts x G=8 rollouts, f32, D=4096,
        # T << D. Reads the most bytes per FLOP; the only workload that runs
        # GRPO, the EMA and shaping. Every rollout has T > stride: today one
        # rollout with T <= stride aborts its whole shape step (exit 2), and
        # a workload must be one on which no invocation fails. Rollouts with
        # one or two prefixes still occur, so shaping skips some rows.
        Workload("shape-step", "shape", dims=4096, dtype="f32", t_median=125,
                 t_sigma=0.55, t_min=41, t_max=512, batches=3, per_batch=16),
        # Incremental Gram engine, row-mean centered, T ~ D: the only
        # workload that reaches gram_stream. T stays at or below D: with
        # T > D the engine's centered Gram drifts from the oracle by ~1e-7,
        # past the README's 1e-8 bound, and no invocation may fail.
        Workload("metrics-stream-centered", "metrics", dims=1024, dtype="f32",
                 t_median=960, t_sigma=0.1, t_min=768, t_max=1024, batches=1,
                 per_batch=2, engine="incremental", center="rowmean"),
    ]
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tok/s",
    "invocation_s_p50": "s",
    "peak_rss_mb": "MB",
}
# Which end-to-end figure each layer figure should move, and where:
#   tensor_io.*            tokens_per_s, peak_rss_mb on shape-step; none on metrics-long
#   dynamics.prefix*       tokens_per_s on metrics-long (dominant), then shape-step
#   spectral.final_er_*    invocation_s_p50 on shape-step; little on metrics-long
#   gram_stream.*          tokens_per_s, peak_rss_mb on metrics-stream-centered only
#   shaping.*              invocation_s_p50 on shape-step only (time < 1%; the
#                          counts show that a refactor keeps behaviour)
#   cli.*                  invocation_s_p50 on every workload
#   dynamics.max_rel_drift the correctness gate (fail_ratio) on metrics-stream-centered
LAYER_UNITS = {
    "tensor_io.read_s": "s",
    "tensor_io.read_mb_per_s": "MB/s",
    "dynamics.prefix_s": "s",
    "dynamics.prefixes": "count",
    "dynamics.prefix_ms_per_prefix": "ms",
    "dynamics.max_rel_drift": "ratio",
    "spectral.final_er_s": "s",
    "spectral.final_er_share": "ratio",
    "gram_stream.construct_s": "s",
    "gram_stream.eig_s": "s",
    "gram_stream.eig_calls": "count",
    "shaping.shape_s": "s",
    "shaping.grpo_s": "s",
    "shaping.shaped": "count",
    "shaping.skipped": "count",
    "shaping.clipped": "count",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "cli.traj_p50_s": "s",
    "cli.traj_p90_s": "s",
    "cli.traj_count": "count",
    "trace.overhead": "ratio",
}


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(names, cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Gate:
    """Checks each invocation's output and tallies trajectories."""

    def __init__(self, w: Workload, plan: dict):
        self.w = w
        self.plan = plan
        self.first_output: dict[int, bytes] = {}
        self._memo: dict[tuple[int, bytes], set[str]] = {}
        self.attempted = self.failed = self.tokens = 0
        self.drift = 0.0
        self.reasons: dict[str, int] = {}

    def record(self, batch: int, code: int, data: bytes | None) -> None:
        trajs = self.plan["batches"][batch]["trajectories"]
        self.attempted += len(trajs)
        if code != 0 or data is None:
            self._fail(f"exit {code}", len(trajs))
            return
        self.tokens += sum(t["T"] for t in trajs)
        expected = self.first_output.setdefault(batch, data)
        if data != expected:
            self._fail("rerun output differs", len(trajs))
            return
        if (batch, data) not in self._memo:
            if self.w.command == "metrics":
                bad, worst = check.check_metrics(data, trajs, self.w.dims)
                self.drift = max(self.drift, worst)
            else:
                bad = check.check_shape(data, trajs, self.w.kappa)
            self._memo[batch, data] = bad
        self._fail("row misses the oracle or contract", len(self._memo[batch, data]))

    def _fail(self, reason: str, count: int) -> None:
        if count:
            self.failed += count
            self.reasons[reason] = self.reasons.get(reason, 0) + count


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, int]:
    """Run the CLI once; return (wall seconds, max RSS in KiB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rankdyn.cli", *argv], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def closed_loop(batches: int, seconds: float, invoke) -> None:
    """Whole cycles over the batches, one invocation at a time, until `seconds`."""
    start = time.perf_counter()
    while True:
        for b in range(batches):
            invoke(b)
        if time.perf_counter() - start >= seconds:
            return


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run_processes(
    w: Workload, seed_dir: Path, plan: dict, seconds: float, work: Path
) -> tuple[Gate, dict]:
    """Untraced run: fresh CLI processes. Returns the gate and end-to-end metrics."""
    setup: list[float] = []
    gate = Gate(w, plan)
    walls, rates, rss = [], [], []

    def measure_setup() -> None:
        setup.append(spawn(["--help"], work / "setup.err")[0])

    def invoke(b: int) -> None:
        measure_setup()
        out = work / f"b{b}.csv"
        out.unlink(missing_ok=True)
        wall, maxrss, code = spawn(w.argv(seed_dir / f"b{b}", out), work / "cli.err")
        tokens = gate.tokens
        gate.record(b, code, _read(out))
        walls.append(wall)
        rates.append((gate.tokens - tokens) / wall)
        rss.append(maxrss)

    closed_loop(w.batches, seconds, invoke)
    while len(setup) < SETUP_REPEATS:
        measure_setup()
    return gate, {
        "setup_s": statistics.median(setup),
        # The median over invocations of tokens over wall time: batches carry
        # nearly equal work, and one stalled invocation does not set the figure.
        "tokens_per_s": statistics.median(rates),
        "invocation_s_p50": statistics.median(walls),
        "peak_rss_mb": max(rss) * 1024 / 1e6,
        "_invocations": len(walls),
        "_setups": len(setup),
    }


def run_traced(
    w: Workload, seed_dir: Path, plan: dict, seconds: float, work: Path
) -> tuple[Gate, dict, list[str]]:
    """Traced run: in-process invocations, alternating traced and untraced cycles."""
    import rankdyn.cli as cli
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    gate = Gate(w, plan)
    recs, csv_bytes, drifts = [], [], [0.0]
    cycle_walls = {True: [], False: []}

    def call(b: int, traced: bool) -> float:
        out = work / f"b{b}.csv"
        out.unlink(missing_ok=True)
        argv = w.argv(seed_dir / f"b{b}", out)
        start = time.perf_counter()
        try:
            code, rec = tracer.run(cli.main, argv) if traced else (cli.main(argv), None)
        except Exception:
            traceback.print_exc()
            code, rec = 1, None
        wall = time.perf_counter() - start
        data = _read(out)
        gate.record(b, code, data)
        if rec is not None:
            recs.append(rec)
            csv_bytes.append(len(data or b""))
            oracle = {t["id"]: t for t in plan["batches"][b]["trajectories"]}
            for s in rec.named("dynamics.trajectory"):
                if s.info and s.traj in oracle:
                    info = s.info
                    drifts.append(check.drift(oracle[s.traj], info["er"], info["erv"], info["era"]))
        return wall

    call(0, traced=False)  # warm-up: lazy imports and first-call set-up
    start, traced = time.perf_counter(), True
    while True:
        cycle_walls[traced].append(sum(call(b, traced) for b in range(w.batches)))
        traced = not traced
        if traced and time.perf_counter() - start >= seconds:
            break
    for rec in recs:
        residual = sum(rec.self_seconds().values()) - rec.spans[0].seconds
        if abs(residual) > 1e-9 * max(1.0, rec.spans[0].seconds):
            raise RuntimeError(f"layer self times miss the invocation wall by {residual:g} s")
    metrics = layer_metrics(recs, csv_bytes)
    metrics["dynamics.max_rel_drift"] = max(drifts)
    metrics["trace.overhead"] = (
        statistics.median(cycle_walls[True]) / statistics.median(cycle_walls[False]) - 1.0
    )
    return gate, metrics, tracer.absent


def run(w: Workload, seed: int, seconds: float, trace: bool, cache: Path = CACHE) -> dict:
    """Prepare inputs, measure, and return the result object."""
    seed_dir, plan = prepare(w, seed, cache / "inputs")
    work = cache / "work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            gate, metrics, absent = run_traced(w, seed_dir, plan, seconds, work)
            units = LAYER_UNITS
        else:
            gate, metrics = run_processes(w, seed_dir, plan, seconds, work)
            absent, units = [], END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lengths = [t["T"] for b in plan["batches"] for t in b["trajectories"]]
    return {
        "gate": gate,
        "metrics": metrics,
        "units": units,
        "absent": absent,
        "short_share": sum(t <= w.stride for t in lengths) / len(lengths),
    }


def report(w: Workload, seed: int, result: dict, env: dict) -> None:
    gate, metrics, units = result["gate"], result["metrics"], result["units"]
    fail_ratio = gate.failed / gate.attempted
    print(json.dumps({"environment": env, "workload": w.name,
                      "absent_layers": result["absent"],
                      "short_rollout_share": result["short_share"],
                      "failures": gate.reasons}))
    print(f"# {w.name} seed {seed}: {gate.attempted} trajectories attempted, {gate.failed} failed")
    for name, unit in units.items():
        extra = ""
        if name == "invocation_s_p50":
            extra = f"  (n={metrics['_invocations']})"
        elif name == "setup_s":
            extra = f"  (median of {metrics['_setups']})"
        print(f"{name:32s} {metrics[name]:.6g} {unit}{extra}")
    print(f"{'fail_ratio':32s} {fail_ratio:.6g} ratio  ({gate.failed}/{gate.attempted})")
    if units is END_TO_END_UNITS and w.command == "metrics":
        print(f"{'max_rel_drift':32s} {gate.drift:.3g} ratio  (bound {check.REL_BOUND:g})")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so spawn() kills and
    # reaps the CLI child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "rankdyn" / "cli.py").is_file():
        print(f"error: {ROOT} holds no rankdyn sources (src/rankdyn)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    report(w, args.seed, run(w, args.seed, args.seconds, bool(args.trace)), environment(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
