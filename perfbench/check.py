"""Correctness gate: every CSV row is checked against the oracle and contracts.

A trajectory fails when it has no output row, when its row carries an error
where the contract defines a result, or when a value misses the oracle bound.
``TrajectoryTooShort`` from ``metrics`` is the documented result for a
trajectory with no stride-aligned prefix, so it passes.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# The README's engine-agreement bound. er is compared relative to itself;
# erv and era can cross zero, so they are compared relative to the
# trajectory's largest prefix effective rank.
REL_BOUND = 1e-8

METRICS_HEADER = ["id", "T", "D", "er", "erv", "era", "error"]
SHAPE_HEADER = ["id", "group", "reward", "a0", "d0", "d1", "d2", "beta", "phi", "a_hat"]


def drift(oracle: dict, er: float, erv: float | None, era: float | None) -> float:
    """Largest relative deviation of (er, erv, era) from the oracle; inf on a
    value that is present where the oracle has none, or the reverse."""
    worst = abs(er - oracle["er"]) / abs(oracle["er"])
    for key, value in (("erv", erv), ("era", era)):
        if (value is None) != (oracle[key] is None):
            return math.inf
        if value is not None:
            worst = max(worst, abs(value - oracle[key]) / oracle["max_prefix_er"])
    return worst


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


def _rows(data: bytes, header: list[str]) -> list[list[str]] | None:
    """Data rows under the expected header, or None for any other output."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode())))
    except (UnicodeDecodeError, csv.Error):
        return None
    return rows[1:] if rows and rows[0] == header else None


def check_metrics(data: bytes, trajs: list[dict], dims: int) -> tuple[set[str], float]:
    """(ids of failed trajectories, largest drift among rows with values)."""
    rows = _rows(data, METRICS_HEADER)
    if rows is None:
        return {t["id"] for t in trajs}, math.inf
    by_id = {row[0]: row for row in rows if len(row) == len(METRICS_HEADER)}
    failed, worst = set(), 0.0
    for t in trajs:
        row = by_id.get(t["id"])
        if row is None:
            failed.add(t["id"])
            continue
        _, rows_, dims_, er, erv, era, error = row
        if t["K"] < 1:
            if not error.startswith("TrajectoryTooShort") or any((rows_, dims_, er, erv, era)):
                failed.add(t["id"])
            continue
        try:
            if error or (int(rows_), int(dims_)) != (t["T"], dims):
                raise ValueError(error)
            d = drift(t, float(er), _float(erv), _float(era))
        except ValueError:
            failed.add(t["id"])
            continue
        worst = max(worst, d)
        if not d <= REL_BOUND:
            failed.add(t["id"])
    return failed, worst


def rule_reward(correct: int, boxed: int) -> float:
    return (1.0 if boxed else 0.5) if correct else (-0.5 if boxed else -1.0)


def grpo(rewards: list[float]) -> list[float]:
    """Population-std z-score of a group; all-equal rewards give zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    std = r.std()
    return [0.0] * len(r) if std < 1e-12 else list((r - r.mean()) / std)


def check_shape(data: bytes, trajs: list[dict], kappa: float) -> set[str]:
    """Ids of failed trajectories. trajs is in manifest order."""
    rows = _rows(data, SHAPE_HEADER)
    if rows is None or len(rows) != len(trajs):
        return {t["id"] for t in trajs}
    rewards = [rule_reward(t["correct"], t["boxed"]) for t in trajs]
    groups: dict[str, list[int]] = {}
    for i, t in enumerate(trajs):
        groups.setdefault(t["group"], []).append(i)
    a0 = [0.0] * len(trajs)
    for members in groups.values():
        for i, adv in zip(members, grpo([rewards[i] for i in members])):
            a0[i] = adv
    failed = set()
    for t, row, reward, base in zip(trajs, rows, rewards, a0):
        try:
            ok = _shape_row_ok(t, row, reward, base, kappa)
        except ValueError:
            ok = False
        if not ok:
            failed.add(t["id"])
    return failed


def _shape_row_ok(t: dict, row: list[str], reward: float, base: float, kappa: float) -> bool:
    if len(row) != len(SHAPE_HEADER) or row[:2] != [t["id"], t["group"]]:
        return False
    got_reward, got_a0, a_hat, phi = float(row[2]), float(row[3]), float(row[9]), _float(row[8])
    tol = 1e-12 * max(1.0, abs(base))
    if got_reward != reward or abs(got_a0 - base) > tol:
        return False
    bonus = a_hat - got_a0
    if not -tol <= bonus <= abs(got_a0) / kappa + tol:
        return False
    # Shaping is defined only when velocity and acceleration both exist.
    if t["era"] is None:
        return phi is None and a_hat == got_a0
    return phi is not None
