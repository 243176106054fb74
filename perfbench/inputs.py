"""Seeded LLM-like hidden-state batches and their float64 SVD oracle.

Everything here runs outside the timed loop: a batch is generated and its
oracle computed once per (workload, seed) and cached on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Singular values at or below this fraction of the largest are numerically
# zero; this is the cutoff the effective-rank definition documents.
RANK_TOLERANCE = 1e-12

# Power-law exponent of the singular spectrum. Hidden states of trained
# decoders show eigenspectra that decay roughly as j^-1 (the alpha-ReQ and
# RankMe line of work reports exponents near 1), which makes the spectrum
# ill-conditioned (cond ~ rank) rather than Gaussian-flat.
SPECTRUM_ALPHA = 1.0

# Norm of the common offset row as a multiple of the RMS norm of the token
# fluctuations. Token representations of decoder LLMs are anisotropic, with
# mean pairwise cosine similarity near 0.9 in middle and late layers
# (Ethayarajh, 2019); cos ~ r^2 / (r^2 + 1) gives r = 3.
OFFSET_RATIO = 3.0

# Massive activations (Sun et al., 2024): a couple of fixed feature
# dimensions carry values about three orders of magnitude above the median
# magnitude, on the first token and on a few delimiter-like tokens.
MASSIVE_DIMS = 2
MASSIVE_SCALE = 1000.0
MASSIVE_TOKEN_SHARE = 0.01

CACHE_VERSION = 3  # bump when generation or oracle semantics change
KEEP_SEEDS = 2  # cached seeds kept per workload; older ones are evicted


@dataclass(frozen=True)
class Workload:
    """What one workload feeds the CLI. Lengths are truncated log-normal."""

    name: str
    command: str  # "metrics" or "shape"
    dims: int
    dtype: str  # HSMX payload dtype, "f64" or "f32"
    t_median: float
    t_sigma: float  # log-space standard deviation
    t_min: int
    t_max: int
    batches: int  # distinct CLI invocations in one cycle of the closed loop
    per_batch: int  # trajectories per invocation
    group_size: int = 8  # rollouts per prompt (shape only)
    stride: int = 40
    engine: str = "naive"
    center: str = "raw"
    kappa: float = 2.0

    def key(self) -> str:
        blob = json.dumps([CACHE_VERSION, asdict(self)], sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def argv(self, batch_dir: Path, out: Path) -> list[str]:
        common = ["--stride", str(self.stride), "--engine", self.engine, "--center", self.center]
        if self.command == "metrics":
            return ["metrics", "--in", str(batch_dir / "*.hsmx"), "--out", str(out), *common]
        return [
            "shape", "--manifest", str(batch_dir / "manifest.txt"), "--out", str(out),
            "--kappa", repr(self.kappa), "--group-size", str(self.group_size), *common,
        ]


def stratified_lengths(rng: np.random.Generator, w: Workload, n: int) -> np.ndarray:
    """n lengths, one from the middle tenth of each of n equal-probability strata.

    Stratifying keeps the total work and the longest trajectory of a batch
    nearly the same from seed to seed, so run-to-run spread measures the
    program, not the draw.
    """
    dist = NormalDist(math.log(w.t_median), w.t_sigma)
    lo, hi = dist.cdf(math.log(w.t_min)), dist.cdf(math.log(w.t_max))
    u = (np.arange(n) + 0.45 + 0.1 * rng.random(n)) / n
    t = [math.exp(dist.inv_cdf(lo + (hi - lo) * x)) for x in u]
    return np.clip(np.round(t), w.t_min, w.t_max).astype(int)


def llm_like(rng: np.random.Generator, rows: int, dims: int, latent: int) -> np.ndarray:
    """Token-by-feature matrix with the three traits of real hidden states."""
    sigma = np.arange(1, latent + 1, dtype=np.float64) ** -SPECTRUM_ALPHA
    mixing = rng.standard_normal((latent, dims)) / math.sqrt(dims)
    z = (rng.standard_normal((rows, latent)) * sigma) @ mixing
    rms = math.sqrt(float((z * z).sum(axis=1).mean()))
    offset = rng.standard_normal(dims)
    z += offset * (OFFSET_RATIO * rms / np.linalg.norm(offset))
    cols = rng.choice(dims, MASSIVE_DIMS, replace=False)
    tokens = np.unique(np.r_[0, rng.choice(rows, max(1, round(MASSIVE_TOKEN_SHARE * rows)))])
    z[np.ix_(tokens, cols)] += MASSIVE_SCALE * float(np.median(np.abs(z)))
    return z


# --- oracle ---------------------------------------------------------------


def oracle_erank(x: np.ndarray) -> float:
    sigma = np.linalg.svd(x, compute_uv=False)
    sigma = sigma[sigma > RANK_TOLERANCE * sigma[0]]
    p = sigma / sigma.sum()
    return math.exp(-float((p * np.log(p)).sum()))


def oracle_metrics(z: np.ndarray, stride: int, center: str) -> dict:
    """er, erv, era of one trajectory straight from the definitions, in float64.

    With z^T = QR, z = R^T Q^T and row i of R^T is zero past column i, so a
    prefix z[:t] = R^T[:t, :m] Q[:, :m]^T with m = min(t, rank bound), and
    (centered or not) it has the singular values of the small R^T[:t, :m].
    For T << D this makes the oracle far cheaper than an SVD of each t x D
    prefix, and it shares no code path with the program's engines.
    """
    lower = np.linalg.qr(z.T, mode="r").T

    def erank(t):
        x = lower[:t, : min(t, lower.shape[1])]
        return oracle_erank(x - x.mean(axis=0) if center == "rowmean" else x)

    k = (len(z) - 1) // stride
    prefix = [erank(j * stride) for j in range(1, k + 1)]
    deltas = [prefix[j] - sum(prefix[:j]) / j for j in range(1, k)]
    return {
        "T": len(z),
        "K": k,
        "er": erank(len(z)),
        "erv": sum(deltas) / len(deltas) if k >= 2 else None,
        "era": (deltas[-1] - deltas[0]) / (len(deltas) - 1) if k >= 3 else None,
        "max_prefix_er": max(prefix) if prefix else None,
    }


# --- batch construction and cache -----------------------------------------


def _rewards_flags(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    # About half the rollouts are correct and most use the boxed format, so
    # the four rule rewards all occur and GRPO groups carry signal.
    return [(int(c), int(b)) for c, b in zip(rng.random(n) < 0.5, rng.random(n) < 0.8)]


def build(w: Workload, seed: int, root: Path, final: Path) -> dict:
    """Write the batches and oracle for one seed into root, which is renamed
    to final once complete (manifests name files under final); return the plan."""
    from rankdyn.tensor_io import HiddenStateMatrix, write_matrix

    rng = np.random.default_rng([seed, int(w.key(), 16)])
    total = w.batches * w.per_batch
    pool = np.sort(stratified_lengths(rng, w, total))
    latent = min(w.dims, w.t_max)
    plan = {"workload": w.name, "seed": seed, "batches": []}
    # Dealing the sorted pool in snake order (0, 1, .., S-1, S-1, .., 0, ..)
    # gives every batch the same mix of short and long trajectories and
    # nearly the same total work.
    rounds = np.arange(total) // w.batches
    dealt = np.where(rounds % 2 == 0, np.arange(total) % w.batches,
                     w.batches - 1 - np.arange(total) % w.batches)
    for b in range(w.batches):
        # Longest first, as packing samplers hand batches back; a fixed order
        # also keeps the allocator's peak the same from seed to seed.
        lengths = pool[dealt == b][::-1]
        batch_dir = root / f"b{b}"
        batch_dir.mkdir(parents=True)
        trajs = []
        for i, rows in enumerate(lengths):
            z = llm_like(rng, int(rows), w.dims, latent)
            # What the CLI sees after it widens the payload on load.
            z = z.astype(np.float32 if w.dtype == "f32" else np.float64).astype(np.float64)
            path = batch_dir / f"t{i:03d}.hsmx"
            write_matrix(HiddenStateMatrix(z), path, w.dtype)
            trajs.append({"id": path.stem, "path": str(path.relative_to(root)),
                          "bytes": path.stat().st_size, **oracle_metrics(z, w.stride, w.center)})
        if w.command == "shape":
            flags = _rewards_flags(rng, len(trajs))
            prompts = rng.permutation(len(trajs)) // w.group_size
            for t, (correct, boxed), p in zip(trajs, flags, prompts):
                t.update(group=f"p{b}-{p}", correct=correct, boxed=boxed)
            lines = [f"{final / t['path']},{t['group']},{t['correct']},{t['boxed']}" for t in trajs]
            (batch_dir / "manifest.txt").write_text("\n".join(lines) + "\n")
        plan["batches"].append({"dir": f"b{b}", "trajectories": trajs})
    return plan


def prepare(w: Workload, seed: int, cache_root: Path) -> tuple[Path, dict]:
    """Return (seed directory, plan), generating and caching on first use."""
    base = cache_root / f"{w.name}-{w.key()}"
    final = base / f"seed-{seed}"
    plan_file = final / "plan.json"
    if plan_file.exists():
        os.utime(final)
        return final, json.loads(plan_file.read_text())
    tmp = base / f".tmp-seed-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        plan = build(w, seed, tmp, final)
        (tmp / "plan.json").write_text(json.dumps(plan))
        shutil.rmtree(final, ignore_errors=True)
        tmp.rename(final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    seeds = sorted(base.glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return final, plan
