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
from .model import ModelConfig, patchify_batch
from .stats import content_statistics

MATCH_STAT_TOL = 1e-2  # statistic distance that labels a patch with its image


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
        for b in plan.bins(t):
            lo, hi = plan.bounds(t, round_idx, b.q)
            members = np.flatnonzero((s > lo) & (s < hi))
            if len(members) == 1:
                singles[b.q] = int(members[0])
        out[t] = singles
    return out


def isolated_union(stats_mn: np.ndarray, plan: AttackPlan) -> int:
    """Distinct (position, image) pairs isolated in at least one round's grid."""
    return len({(t, m) for rho in range(plan.rounds)
                for t, singles in isolated_bins(stats_mn, plan, rho).items()
                for m in singles.values()})


def match_patches(report: ReconstructionReport,
                  stats_mn: np.ndarray) -> list[int | None]:
    """Source image per valid recovered patch, by statistic proximity.

    Evaluation-side ground-truth matching; returns None where no image's
    statistic lies within tolerance (e.g. a collision mixture).
    """
    labels: list[int | None] = []
    for p in report.valid_patches:
        diffs = np.abs(stats_mn[:, p.position - 1] - p.stat_check)
        m = int(np.argmin(diffs))
        labels.append(m if diffs[m] < MATCH_STAT_TOL else None)
    return labels


def place_patches(report: ReconstructionReport, stats_mn: np.ndarray,
                  patch_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Each matched valid patch's pixels at its (image, position - 1) slot.

    Returns the (M, N, patch_dim) placement, zero where nothing landed, and
    the (M, N) mask of filled slots. The first patch to reach a slot keeps it.
    """
    placed = np.zeros((*stats_mn.shape, patch_dim))
    found = np.zeros(stats_mn.shape, dtype=bool)
    for patch, m in zip(report.valid_patches, match_patches(report, stats_mn)):
        if m is not None and not found[m, patch.position - 1]:
            placed[m, patch.position - 1] = patch.pixels
            found[m, patch.position - 1] = True
    return placed, found


def ground_truth_patches(batch, cfg: ModelConfig) -> np.ndarray:
    """(M, N, P^2 C) true patch pixel vectors."""
    return patchify_batch(batch.images, cfg.P)
