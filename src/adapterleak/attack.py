"""Reconstruction from observed adapter gradients.

The attack sees nothing but the gradient tensors and the plan/backbone it
crafted itself. Per round it locates active bins from bias-gradient
differences of consecutive neurons, recovers the token embedding from the
matching weight-gradient pair, undoes the residual per-token LayerNorm
scale with a two-parameter regression on content-free coordinates, inverts
the embedding to pixels, and filters candidates through validity checks.

Pairs are taken within one adapter only: the per-token gradient prefactor
is shared across an adapter's neurons (the up-projection leaks every
neuron into the same output coordinate), which is exactly what makes the
pair difference collapse to a single token; neurons of different adapters
sit at different depths and carry different prefactors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .craft import AttackPlan
from .errors import EmptyBinError
from .model import AdapterSet

PIXEL_SLACK = 0.1  # validity allows [-1 - slack, 1 + slack]


@dataclass
class RecoveredPatch:
    position: int
    bin_index: int
    round_idx: int
    pixels: np.ndarray  # raw, unclamped
    stat_check: float
    valid: bool
    fingerprint: np.ndarray | None = None


@dataclass
class ReconstructionReport:
    patches: list[RecoveredPatch]
    n_positions: int
    m_expected: int
    rounds: tuple[int, ...]

    @property
    def valid_patches(self) -> list[RecoveredPatch]:
        return [p for p in self.patches if p.valid]

    @property
    def coverage(self) -> float:
        total = self.n_positions * self.m_expected
        return len(self.valid_patches) / total if total else 0.0


@dataclass
class BinHit:
    position: int
    bin_index: int  # global interval index within the position's grid
    adapter: int
    neuron: int  # j; the pair is (j, j+1) or (j, implicit zero) at the top
    top: bool


def detect_active_bins(grads: AdapterSet, plan: AttackPlan,
                       tol: float | None = None) -> list[BinHit]:
    """Neuron pairs whose bias-gradient difference indicates an occupied bin.

    Empty bins give bit-identical consecutive bias gradients (the nested
    activation sets coincide), so any positive tolerance separates signal
    from silence; the default is a small fraction of the grid's largest
    bias gradient.
    """
    hits: list[BinHit] = []
    r = plan.r
    for t in plan.positions():
        assigns = plan.adapters_for(t)
        db_grid = np.concatenate([grads.b_down[a.adapter] for a in assigns])
        scale = np.abs(db_grid).max()
        t_tol = tol if tol is not None else 1e-9 * scale
        if not np.isfinite(t_tol):
            continue
        for a in assigns:
            db = grads.b_down[a.adapter]
            for j in range(r - 1):
                if abs(db[j] - db[j + 1]) > t_tol:
                    hits.append(BinHit(t, a.slot * r + j, a.adapter, j, top=False))
        last = assigns[-1]
        if abs(grads.b_down[last.adapter][r - 1]) > t_tol:
            hits.append(BinHit(t, len(assigns) * r - 1, last.adapter, r - 1, top=True))
    return hits


def recover_embedding(dw_j: np.ndarray, db_j: float,
                      dw_j1: np.ndarray, db_j1: float) -> np.ndarray:
    """Pair-difference embedding: (dW_j - dW_{j+1}) / (db_j - db_{j+1})."""
    den = db_j - db_j1
    if den == 0.0:
        raise EmptyBinError("bias-gradient pair carries no signal")
    return (dw_j - dw_j1) / den


def correct_embedding(y_raw: np.ndarray, e_pos_t: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Undo the per-token affine LayerNorm residue.

    Every adapter input equals scale * (y - offset_scalar) per token; the
    content-free coordinates carry pure position encoding, so regressing
    the raw recovery on (E_pos_t, 1) there identifies both unknowns.
    """
    a = np.stack([e_pos_t[rows], np.ones(len(rows))], axis=1)
    coef, *_ = np.linalg.lstsq(a, y_raw[rows], rcond=None)
    scale, offset = float(coef[0]), float(coef[1])
    if scale == 0.0 or not np.isfinite(scale):
        return y_raw.copy(), 1.0, 0.0
    return (y_raw - offset) / scale, scale, offset


def recover_patch(y: np.ndarray, e_pinv: np.ndarray, e_pos_t: np.ndarray) -> np.ndarray:
    """Pixels from a recovered embedding: E^+ (y - E_pos_t), unclamped.

    In average_pool mode the pseudoinverse broadcasts group means back to
    full resolution, so the result is the blockwise-averaged image patch.
    """
    return e_pinv @ (y - e_pos_t)


def patch_statistic(y: np.ndarray, e_pos_t: np.ndarray,
                    content_rows: np.ndarray) -> float:
    """Recovered content statistic, evaluated on the embedding's row support."""
    rows = content_rows
    return float(e_pos_t[rows] @ (y[rows] - e_pos_t[rows]))


def extract_fingerprint(y_raw: np.ndarray, scale: float, offset: float,
                        e_pos_t: np.ndarray, plan: AttackPlan) -> np.ndarray:
    """Source-image tag carried on the reserved coordinates.

    The residual stream there holds (tag + E_pos_t) at half the content
    blocks' gain, hence the factor 2 before removing the known encoding.
    """
    rows = plan.fingerprint_rows
    return 2.0 * (y_raw[rows] - offset) / scale - e_pos_t[rows]


def bin_bounds(plan: AttackPlan, t: int, round_idx: int, bin_index: int):
    grid = plan.grid(t, round_idx)
    lo = grid[bin_index]
    hi = grid[bin_index + 1] if bin_index + 1 < len(grid) else np.inf
    return lo, hi


def validate(patch: RecoveredPatch, plan: AttackPlan) -> bool:
    """Pixel range plus in-bin statistic; rejects most bin collisions."""
    if not np.all(np.isfinite(patch.pixels)):
        return False
    if np.any(np.abs(patch.pixels) > 1.0 + PIXEL_SLACK):
        return False
    lo, hi = bin_bounds(plan, patch.position, patch.round_idx, patch.bin_index)
    return bool(lo < patch.stat_check < hi)


def run_attack(grads: AdapterSet, plan: AttackPlan, pos: np.ndarray,
               round_idx: int, m_expected: int,
               tol: float | None = None) -> ReconstructionReport:
    """One round of reconstruction from a gradient observation."""
    patches: list[RecoveredPatch] = []
    for hit in detect_active_bins(grads, plan, tol):
        a, j = hit.adapter, hit.neuron
        if hit.top:
            dw_j1 = np.zeros(grads.w_down.shape[-1])
            db_j1 = 0.0
        else:
            dw_j1 = grads.w_down[a, j + 1]
            db_j1 = float(grads.b_down[a, j + 1])
        try:
            y_raw = recover_embedding(grads.w_down[a, j], float(grads.b_down[a, j]),
                                      dw_j1, db_j1)
        except EmptyBinError:
            continue
        e_pos_t = pos[hit.position]
        y, scale, offset = correct_embedding(y_raw, e_pos_t, plan.correction_rows)
        pixels = recover_patch(y, plan.e_pinv, e_pos_t)
        stat = patch_statistic(y, e_pos_t, plan.content_rows)
        fp = None
        if plan.fingerprint_enabled:
            fp = extract_fingerprint(y_raw, scale, offset, e_pos_t, plan)
        patch = RecoveredPatch(
            position=hit.position, bin_index=hit.bin_index, round_idx=round_idx,
            pixels=pixels, stat_check=stat, valid=False, fingerprint=fp)
        patch.valid = validate(patch, plan)
        patches.append(patch)
    return ReconstructionReport(patches=patches, n_positions=plan.n_patches,
                                m_expected=m_expected, rounds=(round_idx,))


def group_patches(patches: list[RecoveredPatch], mode: str = "fingerprint",
                  delta: float | None = None,
                  oracle_labels: list[int] | None = None) -> list[list[int]]:
    """Group patch indices by source image.

    oracle mode consumes externally supplied ground-truth labels
    (evaluation only); fingerprint mode single-linkage clusters the
    embedded tags at distance threshold delta.
    """
    if mode == "oracle":
        if oracle_labels is None or len(oracle_labels) != len(patches):
            raise ValueError("oracle grouping needs one label per patch")
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(oracle_labels):
            groups.setdefault(lab, []).append(i)
        return [groups[k] for k in sorted(groups)]
    if mode != "fingerprint":
        raise ValueError(f"unknown grouping mode {mode!r}")
    tagged = [i for i, p in enumerate(patches) if p.fingerprint is not None]
    if delta is None:
        raise ValueError("fingerprint grouping needs a distance threshold")
    parent = {i: i for i in tagged}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ii, i in enumerate(tagged):
        for j in tagged[ii + 1 :]:
            d = np.linalg.norm(patches[i].fingerprint - patches[j].fingerprint)
            if d < delta:
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in tagged:
        clusters.setdefault(find(i), []).append(i)
    return sorted(clusters.values(), key=lambda c: min(c))


def _edge_distance(patch: RecoveredPatch, plan: AttackPlan) -> float:
    lo, hi = bin_bounds(plan, patch.position, patch.round_idx, patch.bin_index)
    if not np.isfinite(hi):
        hi = lo + 2.0 * abs(patch.stat_check - lo) + 1.0
    return min(patch.stat_check - lo, hi - patch.stat_check)


def merge_rounds(reports: list[ReconstructionReport], plan: AttackPlan,
                 stat_tol: float | None = None) -> ReconstructionReport:
    """Union of valid patches across rounds.

    Duplicates (same position, same source patch) are identified by
    near-identical recovered statistics, which are image-intrinsic; the
    duplicate whose statistic sits farthest from its bin edges wins.
    """
    if not reports:
        raise ValueError("nothing to merge")
    base = reports[0]
    if stat_tol is None:
        sigma = plan.stats_sigma[plan.stats_sigma > 0]
        stat_tol = 1e-4 * float(sigma.min()) if len(sigma) else 1e-6
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
    rounds = tuple(sorted({r for rep in reports for r in rep.rounds}))
    return ReconstructionReport(patches=kept, n_positions=base.n_positions,
                                m_expected=base.m_expected, rounds=rounds)

