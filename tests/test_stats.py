import numpy as np
import pytest

from adapterleak.craft import CraftConfig, craft_backbone
from adapterleak.dataio import synth_batch
from adapterleak.errors import DegenerateStatsError
from adapterleak.model import ModelConfig
from adapterleak.numerics import normal_cdf
from adapterleak.stats import content_statistics, estimate_patch_stats


@pytest.fixture(scope="module")
def crafted():
    cfg = ModelConfig()
    bb = craft_backbone(CraftConfig(seed=7), cfg)
    return cfg, bb


class TestEstimation:
    def test_all_zero_images_degenerate(self, crafted):
        cfg, bb = crafted
        with pytest.raises(DegenerateStatsError):
            estimate_patch_stats(np.zeros((4, 3, 8, 8)), bb.embed, bb.pos, cfg)

    def test_single_image_rejected(self, crafted):
        cfg, bb = crafted
        with pytest.raises(DegenerateStatsError):
            estimate_patch_stats(np.zeros((1, 3, 8, 8)), bb.embed, bb.pos, cfg)

    def test_two_point_formula(self, crafted):
        cfg, bb = crafted
        # scale one base image so its statistics are exactly 1x and 3x
        base = synth_batch(1, cfg, seed=5, kind="uniform").images[0]
        stats_base = content_statistics(base[None], bb.embed, bb.pos, cfg)[0]
        imgs = np.stack([base / stats_base[0], base * (3.0 / stats_base[0])])
        est = estimate_patch_stats(imgs, bb.embed, bb.pos, cfg)
        mu, sigma = est.for_position(1)
        assert mu == pytest.approx(2.0, abs=1e-9)
        assert sigma == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_gaussian_fit_kolmogorov_distance(self, crafted):
        # the statistic is a fixed weighted sum of 48 uniforms, so the
        # Gaussian fit carries a small model error on top of sampling noise;
        # measured per-position distances are 0.011..0.035 at this seed
        cfg, bb = crafted
        imgs = synth_batch(1000, cfg, seed=11, kind="uniform").images
        est = estimate_patch_stats(imgs, bb.embed, bb.pos, cfg)
        stats = content_statistics(imgs, bb.embed, bb.pos, cfg)
        distances = []
        for t in range(1, cfg.N + 1):
            s = np.sort(stats[:, t - 1])
            mu, sigma = est.for_position(t)
            fitted = normal_cdf((s - mu) / sigma)
            empirical_hi = np.arange(1, len(s) + 1) / len(s)
            empirical_lo = np.arange(0, len(s)) / len(s)
            distances.append(max(np.abs(fitted - empirical_hi).max(),
                                 np.abs(fitted - empirical_lo).max()))
        assert max(distances) < 0.05
        assert np.mean(distances) < 0.03

    def test_affine_consistency_power_of_two(self, crafted):
        cfg, bb = crafted
        imgs = synth_batch(8, cfg, seed=13, kind="uniform").images * 0.5
        a = estimate_patch_stats(imgs, bb.embed, bb.pos, cfg)
        b = estimate_patch_stats(imgs * 2.0, bb.embed, bb.pos, cfg)
        assert np.array_equal(b.mu[1:], 2.0 * a.mu[1:])
        assert np.array_equal(b.sigma[1:], 2.0 * a.sigma[1:])

    def test_position_independence(self, crafted):
        cfg, bb = crafted
        imgs = synth_batch(16, cfg, seed=17, kind="uniform").images.copy()
        a = estimate_patch_stats(imgs, bb.embed, bb.pos, cfg)
        # perturb only position 4's patch content (bottom-right 4x4 block)
        imgs[:, :, 4:, 4:] = -imgs[:, :, 4:, 4:]
        b = estimate_patch_stats(imgs, bb.embed, bb.pos, cfg)
        assert np.array_equal(a.mu[1:4], b.mu[1:4])
        assert np.array_equal(a.sigma[1:4], b.sigma[1:4])
        assert a.mu[4] != b.mu[4]
