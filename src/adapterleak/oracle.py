"""Ground-truth brute-force accounting for attack evaluation.

Everything here may freely look at the victim batch; the attack module
itself never does. The oracle computes, from true pixel content, which
bins hold exactly one patch: those are the bins the pair-difference
recovery can resolve, so their count is the attack's coverage ceiling.
"""

from __future__ import annotations

import numpy as np

from .attack import ReconstructionReport
from .craft import AttackPlan
from .model import ModelConfig
from .stats import content_statistics


def recoverable_intervals(plan: AttackPlan, t: int, round_idx: int):
    """(lo, hi, bin_index) for every pair-resolvable interval of position t.

    Consecutive-neuron pairs exist inside each adapter (r - 1 per slot) and
    the grid's top neuron pairs with an implicit zero; the interval between
    two adapters' blocks is not resolvable because the bins belong to
    different depths.
    """
    grid = plan.grid(t, round_idx)
    r = plan.r
    n_slots = len(plan.adapters_for(t))
    out = []
    for s in range(n_slots):
        for j in range(r - 1):
            q = s * r + j
            out.append((grid[q], grid[q + 1], q))
    out.append((grid[-1], np.inf, n_slots * r - 1))
    return out


def true_statistics(batch, backbone, cfg: ModelConfig) -> np.ndarray:
    """(M, N) ground-truth statistic for every patch of the batch."""
    return content_statistics(batch.images, backbone.embed, backbone.pos, cfg)


def isolated_bins(stats_mn: np.ndarray, plan: AttackPlan,
                  round_idx: int) -> dict[int, dict[int, int]]:
    """Per position: {bin_index: image} for bins holding exactly one patch."""
    out: dict[int, dict[int, int]] = {}
    for t in plan.positions():
        s = stats_mn[:, t - 1]
        singles: dict[int, int] = {}
        for lo, hi, q in recoverable_intervals(plan, t, round_idx):
            members = np.flatnonzero((s > lo) & (s < hi))
            if len(members) == 1:
                singles[q] = int(members[0])
        out[t] = singles
    return out


def isolated_union(stats_mn: np.ndarray, plan: AttackPlan) -> int:
    """Distinct (position, image) pairs isolated in at least one round's grid."""
    seen = set()
    for rho in range(plan.rounds):
        for t, singles in isolated_bins(stats_mn, plan, rho).items():
            for m in singles.values():
                seen.add((t, m))
    return len(seen)


def match_patches(report: ReconstructionReport, stats_mn: np.ndarray,
                  stat_tol: float = 1e-2) -> list[int | None]:
    """Source image per valid recovered patch, by statistic proximity.

    Evaluation-side ground-truth matching; returns None where no image's
    statistic lies within tolerance (e.g. a collision mixture).
    """
    labels: list[int | None] = []
    for p in report.valid_patches:
        diffs = np.abs(stats_mn[:, p.position - 1] - p.stat_check)
        m = int(np.argmin(diffs))
        labels.append(m if diffs[m] < stat_tol else None)
    return labels


def ground_truth_patches(batch, cfg: ModelConfig) -> np.ndarray:
    """(M, N, P^2 C) true patch pixel vectors."""
    from .model import patchify_batch

    return patchify_batch(batch.images, cfg.P)
