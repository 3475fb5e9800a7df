"""Reconstruction scoring: MSE, SSIM, recovery rate, report emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

GRAY = 0.0  # mid-gray placeholder in [-1, 1] for unrecovered patches
RECOVERY_MSE = 0.05  # a recovered patch below this MSE counts as recovered


def _windows(img: np.ndarray, win: int) -> np.ndarray:
    """(B, C, ny, nx, win*win) contiguous copy of every window position.

    numpy sums a window view in the pairwise order of one contiguous block,
    so summing each copied window along its last axis matches it bit for bit.
    """
    view = sliding_window_view(img, (win, win), axis=(-2, -1))
    return np.ascontiguousarray(view).reshape(*view.shape[:-2], win * win)


def _ssim_batch(a: np.ndarray, b: np.ndarray, window: int,
                data_range: float) -> np.ndarray:
    """Uniform-window SSIM of each (C, H, W) image pair in (B, C, H, W) stacks.

    Every window is evaluated at once, with the same floating-point
    operations in the same order as a per-window loop over ``mean``, ``var``
    and scalar arithmetic, so the result is bit-identical to that loop.
    """
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = min(window, a.shape[-2], a.shape[-1])
    n = win * win
    wa, wb = _windows(a, win), _windows(b, win)
    mu_a = wa.sum(axis=-1) / n
    mu_b = wb.sum(axis=-1) / n
    da = wa - mu_a[..., None]
    db = wb - mu_b[..., None]
    var_a = (da * da).sum(axis=-1) / n
    var_b = (db * db).sum(axis=-1) / n
    cov = (da * db).sum(axis=-1) / n
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    # float_power calls libm pow, as squaring a numpy scalar does
    den = (np.float_power(mu_a, 2) + np.float_power(mu_b, 2) + c1) * (
        var_a + var_b + c2)
    vals = num / den
    return vals.reshape(vals.shape[0], -1).mean(axis=-1)


@dataclass
class ScoreReport:
    mean_mse: float
    mean_ssim: float
    recovery_rate: float


def score_reconstruction(placed: np.ndarray, found: np.ndarray,
                         truth: np.ndarray, p: int, c: int) -> ScoreReport:
    """Score placed patches against ground truth with gray placeholders.

    ``placed`` is the (M, N, P^2 C) array of recovered pixels and ``found``
    the (M, N) mask of its filled slots (``oracle.place_patches``); ``truth``
    is the (M, N, P^2 C) ground-truth patch array. Every target patch
    contributes to the means, recovered or not.
    """
    m, n, d = truth.shape
    if np.shape(placed) != truth.shape or np.shape(found) != (m, n):
        raise ShapeError(f"shape mismatch {np.shape(placed)}, {np.shape(found)} "
                         f"vs {truth.shape}")
    ref = truth.reshape(m * n, d)
    cand = np.clip(np.where(found[..., None], placed, GRAY), -1, 1).reshape(m * n, d)
    mses = ((cand - ref) ** 2).mean(axis=1)
    ssims = _ssim_batch(cand.reshape(-1, c, p, p), ref.reshape(-1, c, p, p),
                        8, 2.0)
    hits = int(np.count_nonzero(found.ravel() & (mses < RECOVERY_MSE)))
    return ScoreReport(
        mean_mse=float(np.mean(mses)),
        mean_ssim=float(np.mean(ssims)),
        recovery_rate=hits / (m * n),
    )


def fmt(x) -> str:
    """Deterministic scalar formatting for CSV/JSON output."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
