"""The metric phase's runtime: the plan of its jobs, the pool that runs them
and the join of their values into one row per trajectory.

A job is one trajectory, or one range of its prefix ends (plan_jobs); the
caller builds it, and fork_map runs a list of them on forked workers. A job's
value is (T, D, the ERs of its ends, the final ER last on a whole one), or
(error type name, message) for any Exception it caught, so one bad trajectory
costs its row and never the batch. Values are plain, as an exception that
needs more than its message cannot be unpickled. join_ranges reads them.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import pickle
import select
import signal
from pathlib import Path

import numpy as np

from .dynamics import differences, walk_flops
from .errors import RankdynError, WorkerDied
from .spectral import Centering
from .tensor_io import read_header


def plan_jobs(paths: list[str], stride: int, centering: Centering,
              cpus: int) -> list[tuple[int, slice | None]]:
    """The metric phase's jobs, as (path index, solve range; None for the
    whole trajectory), in input order.

    A trajectory whose modeled cost (dynamics.walk_flops) exceeds the batch's
    over cpus is cut into contiguous ranges of its prefix ends, taken from its
    last end back, latest first. Each range holds one end, then as many more
    as keep its cost within that share, the build of every earlier block
    included, and more still until its solves cost more than that build; the
    ends left join it when they would solve no more than they rebuild. So each
    range of a cut trajectory solves more than it rebuilds, and a trajectory
    that cannot be cut so stays one job. A trajectory whose header fails a
    check (tensor_io.read_header) or that has no eval step is one job, whose
    worker reports the fault."""
    flops = []
    for path in paths:
        try:
            rows, dims = read_header(path)
            flops.append(walk_flops(rows, dims, stride, centering))
        except (RankdynError, OSError):
            flops.append((0.0, np.zeros(0), np.zeros(0)))
    costs = [head + build.sum() + solve.sum() for head, build, solve in flops]
    share = sum(costs) / cpus
    jobs = []
    for index, (head, build, solve) in enumerate(flops):
        built = head + np.cumsum(build)  # the cost of building every block up to each end
        solved = np.cumsum(solve)  # the cost of solving every end up to each end
        ranges, stop = [], len(solve) if costs[index] > share else 0
        while stop:
            first, cost = stop - 1, built[stop - 1] + solve[stop - 1]
            # cost > 2 * built[stop - 1] once the range solves more than it rebuilds.
            while first and (cost + solve[first - 1] <= share or cost <= 2 * built[stop - 1]):
                first -= 1
                cost += solve[first]
            if first and solved[first - 1] <= built[first - 1]:
                first = 0
            ranges.append(slice(first, stop))
            stop = first
        jobs += [(index, part) for part in ranges] if len(ranges) > 1 else [(index, None)]
    return jobs


def join_ranges(pieces: list[tuple]) -> tuple:
    """One trajectory's row (T, D, er, erv, era, error) from its jobs' values,
    latest first. error is None and the metrics are those of the ERs in order,
    as trajectory_metrics gives them, unless a job failed: then each metric is
    None and error is the earliest failure's (error type name, message)."""
    for values in reversed(pieces):
        if len(values) == 2:
            return None, None, None, None, None, values
    *eranks, final = np.concatenate([values[2] for values in reversed(pieces)])
    return (*pieces[0][:2], float(final), *differences(eranks), None)


CPU_MAX = Path("/sys/fs/cgroup/cpu.max")  # cgroup v2 CPU quota: "quota period" or "max period"
CFS_QUOTA = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")  # cgroup v1 CPU quota, -1 for none
CFS_PERIOD = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")


def usable_cpus() -> int:
    """The CPU affinity, capped at ceil(quota / period) of a cgroup CPU quota:
    CPU_MAX (v2) where it exists, else CFS_QUOTA over CFS_PERIOD (v1). "max",
    -1 or no quota file sets no cap."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    files = [CPU_MAX] if CPU_MAX.exists() else [CFS_QUOTA, CFS_PERIOD]
    try:
        quota, period = (int(field) for path in files for field in path.read_text().split())
    except (OSError, ValueError):
        return cpus or 1
    return min(cpus or 1, math.ceil(quota / period)) if quota > 0 else cpus or 1


def die_with_parent(parent: int) -> None:
    """Worker set-up: the kernel SIGKILLs this worker when its parent dies,
    even by a SIGKILL that no handler sees; a parent gone before prctl ran is
    caught by getppid. Does nothing where libc has no prctl (off Linux)."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)


INDEX_BYTES = 8  # one job index in the index pipe, written and read whole


def _fork_worker(jobs: list, parent: int, pipes: tuple[int, int, int],
                 inherited: list[int]) -> None:
    """Body of one forked worker; never returns. The index pipe holds the next
    job index, which one worker at a time takes and puts back plus one, until
    it reads len(jobs). The (index, result) of its jobs go to the parent,
    pickled, on out_w. A job that raises ends the worker with exit code 1.
    inherited are fds of the parent it closes."""
    code, done = 1, []
    index_r, index_w, out_w = pipes
    try:
        die_with_parent(parent)
        for fd in inherited:
            os.close(fd)
        while (index := int.from_bytes(os.read(index_r, INDEX_BYTES), "little")) < len(jobs):
            os.write(index_w, (index + 1).to_bytes(INDEX_BYTES, "little"))
            done.append((index, jobs[index]()))
        os.write(index_w, len(jobs).to_bytes(INDEX_BYTES, "little"))
        with os.fdopen(out_w, "wb") as out:
            pickle.dump(done, out)
        code = 0
    finally:
        os._exit(code)


def fork_map(jobs: list, workers: int) -> list:
    """[job() for job in jobs] on `workers` bare forked workers, which die
    with this process (die_with_parent). Jobs start in input order. A worker
    that dies, a job that raises included, raises WorkerDied. Every worker is
    reaped and every pipe closed on every way out."""
    parent, (index_r, index_w) = os.getpid(), os.pipe()
    os.write(index_w, (0).to_bytes(INDEX_BYTES, "little"))
    chunks: dict[int, list[bytes]] = {}  # result pipe -> what it has sent
    pids: dict[int, int] = {}  # result pipe -> worker pid, until reaped
    results: dict[int, object] = {}
    try:
        for _ in range(workers):
            out_r, out_w = os.pipe()
            chunks[out_r] = []
            try:
                pid = os.fork()
                if pid == 0:
                    _fork_worker(jobs, parent, (index_r, index_w, out_w), list(chunks))
            finally:  # in the parent only: a worker never returns
                os.close(out_w)
            pids[out_r] = pid
        while pids:
            for fd in select.select(list(pids), [], [])[0]:
                if chunk := os.read(fd, 1 << 16):
                    chunks[fd].append(chunk)
                    continue
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(fd), 0)[1])
                if code:
                    raise WorkerDied(f"a metric worker died with exit code {code}")
                results.update(pickle.loads(b"".join(chunks[fd])))
    finally:
        for pid in pids.values():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in [index_r, index_w, *chunks]:
            os.close(fd)
    return [results[index] for index in range(len(jobs))]
