"""Layer spans recorded from outside the program.

A traced invocation calls ``rankdyn.cli.main`` in-process while the public
functions that the CLI reaches are wrapped. Each wrapper records a span
(name, start, end, parent, trajectory) in memory; the spans of one
invocation form a tree whose root is the ``cli.main`` call, so the self
times of its layers add up to the invocation's wall time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    traj: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced invocation; the first span opened is the root."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.traj: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, traj=self.traj))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.layer] = out.get(s.layer, 0.0) + t
        return out

    def total(self, name: str, parent: str | None = None) -> float:
        return sum((s.seconds for s in self.named(name, parent)), 0.0)

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (parent is None or self.spans[s.parent].name == parent)
        ]

    def trajectory_seconds(self) -> list[float]:
        """Per trajectory: from the start of its read to the end of its last span."""
        bounds: dict[str, list[float]] = {}
        for s in self.spans:
            if s.traj is not None:
                b = bounds.setdefault(s.traj, [s.start, s.end])
                b[1] = max(b[1], s.end)
        return [end - start for start, end in bounds.values()]


# (module, attribute path, span name). The CLI binds most of these names at
# import time, so they are patched where the CLI looks them up.
HOOKS = [
    ("rankdyn.cli", "read_matrix", "tensor_io.read"),
    ("rankdyn.cli", "trajectory_metrics", "dynamics.trajectory"),
    ("rankdyn.dynamics", "prefix_metric_series", "dynamics.prefix"),
    ("rankdyn.dynamics", "effective_rank", "spectral.effective_rank"),
    ("rankdyn.gram_stream", "GramStreamState.extend", "gram_stream.extend"),
    ("rankdyn.gram_stream", "erank_from_gram", "gram_stream.eig"),
    ("rankdyn.cli", "grpo_group_advantage", "shaping.grpo"),
    ("rankdyn.cli", "shape_from_metrics", "shaping.shape"),
]


def _note(name: str, span: Span, args: tuple, kwargs: dict, out) -> None:
    """Counts taken at the layer boundary, from arguments and results."""
    if name == "dynamics.prefix":
        span.info["prefixes"] = len(out.eval_steps)
    elif name == "dynamics.trajectory":
        final_er, series = out
        span.info.update(er=final_er, erv=series.velocity, era=series.acceleration)
    elif name == "shaping.shape":
        outcome = out[0]
        config = kwargs.get("config", args[5] if len(args) > 5 else None)
        span.info["shaped"] = outcome.shaped
        if config is not None:
            span.info["clipped"] = outcome.shaped and outcome.phi > abs(outcome.a0) / config.kappa


class Tracer:
    """Installs the wrappers around one invocation and removes them after."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._targets = []
        for module_name, attr, span_name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *owners, leaf = attr.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._targets.append((owner, leaf, original, span_name))

    def run(self, fn, *args):
        """Call fn(*args) under a fresh recorder; return (result, recorder)."""
        rec = Recorder()
        for owner, leaf, original, span_name in self._targets:
            setattr(owner, leaf, self._wrap(rec, original, span_name))
        root = rec.open("cli.main")
        try:
            result = fn(*args)
        finally:
            rec.close(root)
            for owner, leaf, original, _ in self._targets:
                setattr(owner, leaf, original)
        return result, rec

    @staticmethod
    def _wrap(rec: Recorder, fn, name: str):
        def wrapper(*args, **kwargs):
            if name == "tensor_io.read":
                rec.traj = Path(args[0]).stem
            index = rec.open(name)
            span = rec.spans[index]
            if name == "tensor_io.read":
                span.info["bytes"] = Path(args[0]).stat().st_size
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(index)
            _note(name, span, args, kwargs, out)
            return out

        return wrapper


def layer_metrics(recs: list[Recorder], csv_bytes: list[int]) -> dict[str, float]:
    """Per-invocation layer figures: medians of times, means of counts."""

    def med(values):
        return statistics.median(values) if values else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    walls = [r.spans[0].seconds for r in recs]
    read_s = [r.total("tensor_io.read") for r in recs]
    read_bytes = sum(s.info.get("bytes", 0) for r in recs for s in r.named("tensor_io.read"))
    prefix_s = [r.total("dynamics.prefix") for r in recs]
    prefixes = [sum(s.info.get("prefixes", 0) for s in r.named("dynamics.prefix")) for r in recs]
    final_er = [r.total("spectral.effective_rank", parent="dynamics.trajectory") for r in recs]
    shapes = [r.named("shaping.shape") for r in recs]
    traj = [t for r in recs for t in r.trajectory_seconds()]
    deciles = [med(traj)] * 9
    if len(traj) >= 2:
        deciles = statistics.quantiles(traj, n=10, method="inclusive")
    return {
        "tensor_io.read_s": med(read_s),
        "tensor_io.read_mb_per_s": read_bytes / 1e6 / sum(read_s) if sum(read_s) else 0.0,
        "dynamics.prefix_s": med(prefix_s),
        "dynamics.prefixes": mean(prefixes),
        "dynamics.prefix_ms_per_prefix": (
            1e3 * sum(prefix_s) / sum(prefixes) if sum(prefixes) else 0.0
        ),
        "spectral.final_er_s": med(final_er),
        "spectral.final_er_share": med([f / w for f, w in zip(final_er, walls)]),
        "gram_stream.construct_s": med([r.total("gram_stream.extend") for r in recs]),
        "gram_stream.eig_s": med([r.total("gram_stream.eig") for r in recs]),
        "gram_stream.eig_calls": mean([len(r.named("gram_stream.eig")) for r in recs]),
        "shaping.shape_s": med([r.total("shaping.shape") for r in recs]),
        "shaping.grpo_s": med([r.total("shaping.grpo") for r in recs]),
        "shaping.shaped": mean([sum(s.info.get("shaped", False) for s in ss) for ss in shapes]),
        "shaping.skipped": mean([sum(not s.info.get("shaped", True) for s in ss) for ss in shapes]),
        "shaping.clipped": mean([sum(s.info.get("clipped", False) for s in ss) for ss in shapes]),
        "cli.self_s": med([r.self_seconds().get("cli", 0.0) for r in recs]),
        "cli.csv_bytes": mean(csv_bytes),
        "cli.traj_p50_s": deciles[4],
        "cli.traj_p90_s": deciles[8],
        "cli.traj_count": float(len(traj)),
    }
