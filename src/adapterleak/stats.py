"""Attacker-side estimation of per-position patch-statistic distributions.

The scalar statistic of patch position t is the projection of the patch's
content embedding onto that position's encoding vector. Its distribution
over a public dataset is fit by moments with a Gaussian; the fitted
quantiles place the bin thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatsError
from .model import ModelConfig, patchify_batch


@dataclass
class PatchStats:
    mu: np.ndarray  # (N+1,); entry 0 (class token) unused, kept for indexing
    sigma: np.ndarray  # (N+1,)

    def for_position(self, t: int) -> tuple[float, float]:
        return float(self.mu[t]), float(self.sigma[t])


def content_statistics(images: np.ndarray, e: np.ndarray, e_pos: np.ndarray,
                       cfg: ModelConfig) -> np.ndarray:
    """Per-(image, position) statistic (E_pos_t . E x_t); shape (M, N)."""
    patches = patchify_batch(images, cfg.P)  # (M, N, P^2C)
    x_map = patches @ e.T  # (M, N, D)
    return np.einsum("mnd,nd->mn", x_map, e_pos[1:])


def estimate_patch_stats(images: np.ndarray, e: np.ndarray, e_pos: np.ndarray,
                         cfg: ModelConfig) -> PatchStats:
    """Sample mean/std (unbiased) of the statistic per patch position, m >= 2."""
    stats = content_statistics(images, e, e_pos, cfg)
    mu = np.zeros(cfg.N + 1)
    sigma = np.zeros(cfg.N + 1)
    mu[1:] = stats.mean(axis=0)
    sigma[1:] = stats.std(axis=0, ddof=1)
    if np.any(sigma[1:] == 0.0):
        bad = int(np.flatnonzero(sigma[1:] == 0.0)[0]) + 1
        raise DegenerateStatsError(f"constant statistic at position {bad}")
    return PatchStats(mu=mu, sigma=sigma)
