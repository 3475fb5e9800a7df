"""Reconstruction from observed adapter gradients.

The attack sees nothing but the gradient tensors and the plan and backbone
the server crafted itself. The backbone's embedding matrix E is the one
record of the embedding layout (``craft.embedding_layout`` reads it back),
and its position encodings are the offsets the attack subtracts. Per round
it locates active bins from bias-gradient differences of consecutive
neurons, recovers the token embedding from the matching weight-gradient
pair, undoes the residual per-token LayerNorm scale with a two-parameter
regression on content-free coordinates, inverts E to pixels, and filters
candidates through validity checks.

Pairs are taken within one adapter only: the per-token gradient prefactor
is shared across an adapter's neurons (the up-projection leaks every
neuron into the same output coordinate), which is exactly what makes the
pair difference collapse to a single token; neurons of different adapters
sit at different depths and carry different prefactors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .craft import AttackPlan, Bin, embedding_layout
from .errors import EmptyBinError
from .model import AdapterSet, FrozenBackbone

PIXEL_SLACK = 0.1  # validity allows [-1 - slack, 1 + slack]
DETECT_REL_TOL = 1e-9  # of a position's largest bias gradient
MERGE_REL_TOL = 1e-4  # of the smallest statistic spread


@dataclass
class RecoveredPatch:
    position: int
    bin_index: int
    round_idx: int
    pixels: np.ndarray  # raw, unclamped
    stat_check: float
    valid: bool


@dataclass
class ReconstructionReport:
    patches: list[RecoveredPatch]
    n_positions: int
    m_expected: int

    @property
    def valid_patches(self) -> list[RecoveredPatch]:
        return [p for p in self.patches if p.valid]

    @property
    def coverage(self) -> float:
        total = self.n_positions * self.m_expected
        return len(self.valid_patches) / total if total else 0.0


def detect_active_bins(grads: AdapterSet, plan: AttackPlan) -> list[tuple[int, Bin]]:
    """(position, bin) for every bin whose neuron pair's bias-gradient
    difference indicates an occupant.

    Empty bins give bit-identical consecutive bias gradients (the nested
    activation sets coincide), so any positive tolerance separates signal
    from silence; it is a small fraction of the position's largest bias
    gradient.
    """
    hits: list[tuple[int, Bin]] = []
    for t in plan.positions():
        scale = np.abs(grads.b_down[[a.adapter for a in plan.adapters_for(t)]]).max()
        t_tol = DETECT_REL_TOL * scale
        if not np.isfinite(t_tol):
            continue
        for b in plan.bins(t):
            db = grads.b_down[b.adapter]
            partner = 0.0 if b.top else db[b.neuron + 1]
            if abs(db[b.neuron] - partner) > t_tol:
                hits.append((t, b))
    return hits


def recover_embedding(dw_j: np.ndarray, db_j: float,
                      dw_j1: np.ndarray, db_j1: float) -> np.ndarray:
    """Pair-difference embedding: (dW_j - dW_{j+1}) / (db_j - db_{j+1})."""
    den = db_j - db_j1
    if den == 0.0:
        raise EmptyBinError("bias-gradient pair carries no signal")
    return (dw_j - dw_j1) / den


def correct_embedding(y_raw: np.ndarray, e_pos_t: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """Undo the per-token affine LayerNorm residue.

    Every adapter input equals scale * (y - offset_scalar) per token; the
    content-free coordinates carry pure position encoding, so regressing
    the raw recovery on (E_pos_t, 1) there identifies both unknowns.
    """
    a = np.stack([e_pos_t[rows], np.ones(len(rows))], axis=1)
    coef, *_ = np.linalg.lstsq(a, y_raw[rows], rcond=None)
    scale, offset = float(coef[0]), float(coef[1])
    if scale == 0.0 or not np.isfinite(scale):
        return y_raw.copy()
    return (y_raw - offset) / scale


def recover_patch(y: np.ndarray, e_pinv: np.ndarray, e_pos_t: np.ndarray) -> np.ndarray:
    """Pixels from a recovered embedding: E^+ (y - E_pos_t), unclamped.

    In average_pool mode the pseudoinverse broadcasts group means back to
    full resolution, so the result is the blockwise-averaged image patch.
    """
    return e_pinv @ (y - e_pos_t)


def patch_statistic(y: np.ndarray, e_pos_t: np.ndarray, rows: np.ndarray) -> float:
    """Recovered content statistic, evaluated on the embedding's content rows."""
    return float(e_pos_t[rows] @ (y[rows] - e_pos_t[rows]))


def validate(patch: RecoveredPatch, plan: AttackPlan) -> bool:
    """Pixel range plus in-bin statistic; rejects most bin collisions."""
    if not np.all(np.isfinite(patch.pixels)):
        return False
    if np.any(np.abs(patch.pixels) > 1.0 + PIXEL_SLACK):
        return False
    lo, hi = plan.bounds(patch.position, patch.round_idx, patch.bin_index)
    return bool(lo < patch.stat_check < hi)


def run_attack(grads: AdapterSet, plan: AttackPlan, backbone: FrozenBackbone,
               round_idx: int, m_expected: int) -> ReconstructionReport:
    """One round of reconstruction from a gradient observation."""
    pos = backbone.pos
    layout = embedding_layout(backbone.embed, len(pos) - 1)
    patches: list[RecoveredPatch] = []
    for t, b in detect_active_bins(grads, plan):
        a, j = b.adapter, b.neuron
        dw_j1 = np.zeros(grads.w_down.shape[-1]) if b.top else grads.w_down[a, j + 1]
        db_j1 = 0.0 if b.top else float(grads.b_down[a, j + 1])
        try:
            y_raw = recover_embedding(grads.w_down[a, j], float(grads.b_down[a, j]),
                                      dw_j1, db_j1)
        except EmptyBinError:
            continue
        e_pos_t = pos[t]
        y = correct_embedding(y_raw, e_pos_t, layout.correction_rows)
        pixels = recover_patch(y, layout.e_pinv, e_pos_t)
        stat = patch_statistic(y, e_pos_t, layout.content_rows)
        patch = RecoveredPatch(
            position=t, bin_index=b.q, round_idx=round_idx,
            pixels=pixels, stat_check=stat, valid=False)
        patch.valid = validate(patch, plan)
        patches.append(patch)
    return ReconstructionReport(patches=patches, n_positions=len(pos) - 1,
                                m_expected=m_expected)


def _edge_distance(patch: RecoveredPatch, plan: AttackPlan) -> float:
    lo, hi = plan.bounds(patch.position, patch.round_idx, patch.bin_index)
    return min(patch.stat_check - lo, hi - patch.stat_check)


def merge_rounds(reports: list[ReconstructionReport],
                 plan: AttackPlan) -> ReconstructionReport:
    """Union of valid patches across rounds; one round's report is its own merge.

    Duplicates (same position, same source patch) are identified by
    near-identical recovered statistics, which are image-intrinsic; the
    duplicate whose statistic sits farthest from its bin edges wins.
    """
    if len(reports) == 1:
        return reports[0]
    sigma = plan.stats_sigma[plan.stats_sigma > 0]
    stat_tol = MERGE_REL_TOL * float(sigma.min()) if len(sigma) else 1e-6
    kept: list[RecoveredPatch] = []
    ordered = sorted((p for rep in reports for p in rep.valid_patches),
                     key=lambda p: (p.position, p.stat_check))
    for p in ordered:
        if kept and kept[-1].position == p.position and \
                abs(kept[-1].stat_check - p.stat_check) <= stat_tol:
            if _edge_distance(p, plan) > _edge_distance(kept[-1], plan):
                kept[-1] = p
            continue
        kept.append(p)
    return ReconstructionReport(patches=kept, n_positions=reports[0].n_positions,
                                m_expected=reports[0].m_expected)
