import hashlib
import math

import numpy as np
import pytest

from adapterleak import model as mdl
from adapterleak.craft import CraftConfig, craft_backbone
from adapterleak.dataio import Batch, synth_batch
from adapterleak.errors import ConfigError, ShapeError
from adapterleak.numerics import Rng


def tiny_cfg(**kw):
    base = dict(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                num_classes=5, adapter_activation="gelu")
    base.update(kw)
    return mdl.ModelConfig(**base)


class TestConfig:
    def test_valid_desk_defaults(self):
        cfg = mdl.ModelConfig()
        assert cfg.D_h == 24 and cfg.N == 4 and cfg.num_adapters == 12

    @pytest.mark.parametrize("kw", [dict(D=97), dict(H=9), dict(r=1),
                                    dict(adapter_activation="tanh"),
                                    dict(head_mode="cls")])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            mdl.ModelConfig(**kw)


def patchify(image, p):
    return mdl.patchify_batch(image[None], p)[0]


class TestPatchify:
    def test_patch_count_8x8(self):
        img = Rng(0).uniform(3 * 8 * 8).reshape(3, 8, 8)
        patches = patchify(img, 4)
        assert patches.shape == (4, 48)

    def test_patch_count_32x32(self):
        img = np.zeros((3, 32, 32))
        assert patchify(img, 16).shape == (4, 768)

    def test_patch_count_64x64(self):
        img = np.zeros((3, 64, 64))
        assert patchify(img, 16).shape == (16, 768)

    def test_channel_major_row_major_layout(self):
        img = np.arange(3 * 8 * 8, dtype=float).reshape(3, 8, 8)
        patches = patchify(img, 4)
        # patch 1 is the top-right 4x4 block; channel-major flattening
        assert patches[1][0] == img[0, 0, 4]
        assert patches[1][16] == img[1, 0, 4]
        assert patches[2][0] == img[0, 4, 0]

    def test_bijection(self):
        rng = Rng(6)
        img = rng.uniform(3 * 8 * 8).reshape(3, 8, 8) * 2 - 1
        back = mdl.unpatchify(patchify(img, 4), 4, 3, 8, 8)
        assert np.array_equal(back, img)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            mdl.patchify_batch(np.zeros((2, 3, 8, 8)), 3)

    def test_batch_is_per_image_patches(self):
        images = Rng(7).uniform(5 * 3 * 8 * 12).reshape(5, 3, 8, 12)
        batch = mdl.patchify_batch(images, 4)
        assert batch.shape == (5, 6, 48)
        for img, patches in zip(images, batch):
            assert np.array_equal(mdl.unpatchify(patches, 4, 3, 8, 12), img)


class TestEmbed:
    def test_zero_patch_gives_position_encoding(self):
        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(1))
        tokens = mdl.build_tokens(Batch(np.zeros((2, 3, 8, 8)), np.zeros(2)), bb, cfg)
        assert np.array_equal(tokens[:, 1:], np.broadcast_to(bb.pos[1:], (2, 4, 16)))
        assert np.array_equal(tokens[:, 0], np.broadcast_to(bb.class_token + bb.pos[0], (2, 16)))

    def test_identity_pad_structure(self):
        cfg = mdl.ModelConfig()
        bb, _ = craft_backbone(CraftConfig(seed=3), cfg)
        bb.pos = np.zeros_like(bb.pos)
        tokens = mdl.build_tokens(Batch(np.ones((1, 3, 8, 8)), np.zeros(1)), bb, cfg)
        assert np.allclose(tokens[0, 1:, :48], 0.5)
        assert np.all(tokens[0, 1:, 48:] == 0.0)

    def test_round_trip_with_recovery(self):
        from adapterleak.attack import recover_patch

        cfg = mdl.ModelConfig()
        bb, embed_info = craft_backbone(CraftConfig(seed=4), cfg)
        image = Rng(5).uniform(3 * 8 * 8).reshape(1, 3, 8, 8) * 2 - 1
        tokens = mdl.build_tokens(Batch(image, np.zeros(1)), bb, cfg)
        truth = mdl.patchify_batch(image, cfg.P)[0]
        for t in range(1, cfg.N + 1):
            back = recover_patch(tokens[0, t], embed_info["e_pinv"], bb.pos[t])
            assert np.max(np.abs(back - truth[t - 1])) < 1e-12


class TestMsa:
    def test_single_token_identity_exact(self):
        cfg = mdl.ModelConfig()
        bb, _ = craft_backbone(CraftConfig(seed=5), cfg)
        token = Rng(7).normal(0, 10, 96).reshape(1, 1, 96)
        out, cache = mdl.msa_forward(token, bb.encoders[1], cfg.D_h)
        assert np.array_equal(cache["attn"][0], np.ones((1, 1, 1)))
        assert np.max(np.abs(out - token)) < 1e-12

    def test_crafted_identity_on_random_tokens(self):
        cfg = mdl.ModelConfig()
        cc = CraftConfig(seed=6)
        bb, _ = craft_backbone(cc, cfg)
        # tokens shaped like the design's operating point: encodings + content
        tokens = bb.pos[None, :, :] + 0.05 * Rng(8).normal(0, 1, 5 * 96).reshape(1, 5, 96)
        out, _ = mdl.msa_forward(tokens, bb.encoders[0], cfg.D_h)
        assert np.max(np.abs(out - tokens)) < 1e-6


class TestAdapterForward:
    def test_zero_up_projection_is_skip(self):
        cfg = tiny_cfg()
        ads = mdl.AdapterSet(Rng(1).normal(0, 1, 4 * 16).reshape(1, 4, 16),
                             Rng(2).normal(0, 1, 4).reshape(1, 4),
                             np.zeros((1, 16, 4)), np.zeros((1, 16)))
        tokens = Rng(3).normal(0, 1, 2 * 5 * 16).reshape(2, 5, 16)
        out, _ = mdl.adapter_forward(tokens, ads, 0, "relu")
        assert np.array_equal(out, tokens)

    def test_all_zero_adapter_is_identity(self):
        ads = mdl.AdapterSet.zeros(tiny_cfg())
        tokens = Rng(4).normal(0, 1, 3 * 2 * 16).reshape(3, 2, 16)
        out, _ = mdl.adapter_forward(tokens, ads, 1, "relu")
        assert np.array_equal(out, tokens)


class TestForward:
    def test_uniform_logits_loss_is_log_k(self):
        cfg = tiny_cfg()
        logits = np.zeros((3, cfg.num_classes))
        loss, probs, _ = mdl.cross_entropy(logits, np.array([0, 1, 2]))
        assert loss == pytest.approx(math.log(cfg.num_classes), abs=1e-12)

    def test_large_margin_loss_vanishes(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss, _, _ = mdl.cross_entropy(logits, np.array([2]))
        assert loss < 1e-20

    def test_batch_loss_is_mean_of_singles(self):
        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(10))
        ads = mdl.AdapterSet.random(cfg, Rng(11), scale=0.2)
        batch = synth_batch(4, cfg, seed=12)
        _, loss, _ = mdl.forward(batch, bb, ads, cfg)
        singles = []
        for i in range(4):
            single = Batch(batch.images[i : i + 1], batch.labels[i : i + 1])
            _, li, _ = mdl.forward(single, bb, ads, cfg)
            singles.append(li)
        assert loss == pytest.approx(np.mean(singles), abs=1e-14)

    def test_cache_recomputation_bit_exact(self):
        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(13))
        ads = mdl.AdapterSet.random(cfg, Rng(14), scale=0.2)
        batch = synth_batch(2, cfg, seed=15)
        logits1, loss1, cache1 = mdl.forward(batch, bb, ads, cfg)
        logits2, loss2, cache2 = mdl.forward(batch, bb, ads, cfg)
        assert np.array_equal(logits1, logits2)
        assert loss1 == loss2
        for s in range(cfg.num_adapters):
            assert np.array_equal(cache1.sublayers[s]["adapter"]["v"],
                                  cache2.sublayers[s]["adapter"]["v"])
            assert np.array_equal(cache1.sublayers[s]["u"], cache2.sublayers[s]["u"])

    def test_wrong_adapter_count_rejected(self):
        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(16))
        ads = mdl.AdapterSet.zeros(tiny_cfg(num_encoders=1))
        with pytest.raises(ShapeError):
            mdl.forward(synth_batch(2, cfg, seed=1), bb, ads, cfg)

    def test_head_modes_differ(self):
        cfg_mean = tiny_cfg()
        cfg_cls = tiny_cfg(head_mode="class_token")
        bb = mdl.random_backbone(cfg_mean, Rng(17))
        ads = mdl.AdapterSet.random(cfg_mean, Rng(18), scale=0.1)
        batch = synth_batch(2, cfg_mean, seed=19)
        _, loss_mean, _ = mdl.forward(batch, bb, ads, cfg_mean)
        _, loss_cls, _ = mdl.forward(batch, bb, ads, cfg_cls)
        assert loss_mean != loss_cls


def _bit_equal(a, b) -> bool:
    """Recursive exact equality of cache entries (dicts, lists, arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_bit_equal, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestTruncatedForward:
    @pytest.mark.parametrize("head_mode", ["mean_pool", "class_token"])
    def test_cache_is_prefix_of_full_cache(self, head_mode):
        cfg = tiny_cfg(num_encoders=3, head_mode=head_mode)
        bb = mdl.random_backbone(cfg, Rng(20))
        ads = mdl.AdapterSet.random(cfg, Rng(21), scale=0.2)
        batch = synth_batch(5, cfg, seed=22)
        _, _, full = mdl.forward(batch, bb, ads, cfg)
        for k in range(cfg.num_adapters):
            logits, loss, cache = mdl.forward(batch, bb, ads, cfg, k)
            assert logits is None and loss is None
            assert cache.probs is None and cache.final == {}
            assert _bit_equal(cache.sublayers, full.sublayers[: k + 1])

    @pytest.mark.parametrize("stop_after", [-1, 4])
    def test_out_of_range_rejected(self, stop_after):
        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(23))
        with pytest.raises(ShapeError):
            mdl.forward(synth_batch(1, cfg, seed=1), bb, mdl.AdapterSet.zeros(cfg),
                        cfg, stop_after)

    def test_backward_rejects_truncated_cache(self):
        from adapterleak.grad import backward_adapters

        cfg = tiny_cfg()
        bb = mdl.random_backbone(cfg, Rng(24))
        ads = mdl.AdapterSet.zeros(cfg)
        _, _, cache = mdl.forward(synth_batch(1, cfg, seed=1), bb, ads, cfg,
                                  cfg.num_adapters - 1)
        with pytest.raises(ShapeError):
            backward_adapters(cache, bb, ads, cfg)


# AdapterSet.random's tensors, pinned: digested once, each adapter's w_down,
# b_down, w_up and b_up in turn.
PIN_RANDOM_ADAPTERS = "3768a368eaad3657"


class TestRandomAdaptersPinned:
    def test_tensors_unchanged(self):
        ads = mdl.AdapterSet.random(mdl.ModelConfig(), Rng(32), 0.1)
        h = hashlib.sha256()
        for a in range(len(ads)):
            for arr in (ads.w_down[a], ads.b_down[a], ads.w_up[a], ads.b_up[a]):
                h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest()[:16] == PIN_RANDOM_ADAPTERS
