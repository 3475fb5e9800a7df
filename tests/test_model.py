import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adapterleak import grad
from adapterleak import model as mdl
from adapterleak.craft import CraftConfig, craft_backbone, embedding_layout
from adapterleak.dataio import Batch, synth_batch
from adapterleak.errors import ConfigError, ShapeError
from adapterleak.numerics import _PHI_SATURATION, Rng, gelu, gelu_grad
from helpers import mixed_backbone


def tiny_cfg(**kw):
    base = dict(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                num_classes=5)
    base.update(kw)
    return mdl.ModelConfig(**base)


class TestConfig:
    def test_valid_desk_defaults(self):
        cfg = mdl.ModelConfig()
        assert cfg.D_h == 24 and cfg.N == 4 and cfg.num_adapters == 12

    @pytest.mark.parametrize("kw", [dict(D=97), dict(H=9), dict(r=1),
                                    dict(head_mode="cls"), dict(W=9)])
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
        bb = craft_backbone(CraftConfig(seed=3), cfg)
        bb.pos = np.zeros_like(bb.pos)
        tokens = mdl.build_tokens(Batch(np.ones((1, 3, 8, 8)), np.zeros(1)), bb, cfg)
        assert np.allclose(tokens[0, 1:, :48], 0.5)
        assert np.all(tokens[0, 1:, 48:] == 0.0)

    def test_round_trip_with_recovery(self):
        from adapterleak.attack import recover_patch

        cfg = mdl.ModelConfig()
        bb = craft_backbone(CraftConfig(seed=4), cfg)
        image = Rng(5).uniform(3 * 8 * 8).reshape(1, 3, 8, 8) * 2 - 1
        tokens = mdl.build_tokens(Batch(image, np.zeros(1)), bb, cfg)
        truth = mdl.patchify_batch(image, cfg.P)[0]
        e_pinv = embedding_layout(bb.embed, cfg.N).e_pinv
        for t in range(1, cfg.N + 1):
            back = recover_patch(tokens[0, t], e_pinv, bb.pos[t])
            assert np.max(np.abs(back - truth[t - 1])) < 1e-12


class TestMsa:
    def test_single_token_identity_exact(self):
        cfg = mdl.ModelConfig()
        bb = craft_backbone(CraftConfig(seed=5), cfg)
        token = Rng(7).normal(0, 10, 96).reshape(1, 1, 96)
        out, cache = mdl.msa_forward(token, bb.encoders[1], cfg.D_h)
        assert np.array_equal(cache["attn"][0], np.ones((1, 1, 1)))
        assert np.max(np.abs(out - token)) < 1e-12

    def test_crafted_identity_on_random_tokens(self):
        cfg = mdl.ModelConfig()
        cc = CraftConfig(seed=6)
        bb = craft_backbone(cc, cfg)
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
        out, _ = mdl.adapter_forward(tokens, ads, 0)
        assert np.array_equal(out, tokens)

    def test_all_zero_adapter_is_identity(self):
        ads = mdl.AdapterSet.zeros(tiny_cfg())
        tokens = Rng(4).normal(0, 1, 3 * 2 * 16).reshape(3, 2, 16)
        out, _ = mdl.adapter_forward(tokens, ads, 1)
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


# x entries for the crafted copies: signed zeros, subnormals, values near
# 1e300 and ordinary floats
_X_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300, -1e300,
                     -9.9e299]),
    st.floats(-1e3, 1e3))
_NONFINITE = [np.inf, -np.inf, np.nan]


def _placeholder_encoder() -> mdl.EncoderParams:
    names = [f.name for f in dataclasses.fields(mdl.EncoderParams)]
    return mdl.EncoderParams(**{name: np.zeros(1) for name in names})


def _as_gemm(enc: mdl.EncoderParams) -> mdl.EncoderParams:
    """``enc``'s weights in an encoder that recognizes nothing, so every
    product with them is a GEMM."""
    ref = dataclasses.replace(enc)
    ref.crafted_attention = ref.copies_mlp = lambda: False
    return ref


def _set(w: np.ndarray, at: tuple, value: float) -> np.ndarray:
    """A copy of w with entry ``at`` set to ``value``."""
    w = w.copy()
    w[at] = value
    return w


def _with_one(x: np.ndarray, data, values) -> np.ndarray:
    """x with one entry, drawn, replaced by one of ``values``."""
    x = x.copy()
    x.flat[data.draw(st.integers(0, x.size - 1))] = data.draw(st.sampled_from(values))
    return x


@st.composite
def _crafted_attentions(draw):
    """(enc, d_h, tokens, d_out): a crafted attention, w_q = w_k = I per
    head, w_v the head-slice picker and w_msa = I, with biases equal across
    q, k and v or not, and tokens and an output gradient that are finite or
    hold one non-finite entry."""
    heads, d_h = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    d = heads * d_h
    enc = _placeholder_encoder()
    enc.w_q = np.stack([np.eye(d_h)] * heads)
    enc.w_k = enc.w_q.copy()
    enc.w_v = np.eye(d).reshape(heads, d_h, d)
    enc.w_msa = np.eye(d)
    bias = hnp.arrays(np.float64, (heads, d_h), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)))
    enc.b_q = draw(bias)
    enc.b_k = enc.b_q.copy() if draw(st.booleans()) else draw(bias)
    enc.b_v = enc.b_q.copy() if draw(st.booleans()) else draw(bias)
    shape = (*draw(st.sampled_from([(), (2,)])), draw(st.integers(1, 5)), d)
    tokens = draw(hnp.arrays(np.float64, shape, elements=_X_VALUES))
    d_out = draw(hnp.arrays(np.float64, shape, elements=_X_VALUES))
    data = draw(st.data())
    if draw(st.integers(0, 3)) == 3:
        tokens = _with_one(tokens, data, _NONFINITE)
    if draw(st.integers(0, 3)) == 3:
        d_out = _with_one(d_out, data, _NONFINITE)
    return enc, d_h, tokens, d_out


class TestSelectorProduct:
    """The crafted encoder's 0/1 matrices run as copies with the GEMM's bytes."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=_crafted_attentions())
    def test_copy_is_the_gemm_bit_for_bit(self, case):
        # a non-finite token or gradient spreads NaN through the GEMM's
        # columns, so the equality also shows that it took the GEMM; NaN
        # logits (from non-finite tokens, or inf - inf) make both raise
        enc, d_h, tokens, d_out = case
        assert enc.crafted_attention()
        ref = _as_gemm(enc)
        with np.errstate(all="ignore"):
            try:
                want, ref_cache = mdl.msa_forward(tokens, ref, d_h)
            except ValueError:
                with pytest.raises(ValueError, match="NaN"):
                    mdl.msa_forward(tokens, enc, d_h)
                assert not np.isfinite(tokens).all() or np.abs(tokens).max() > 1e150
                return
            out, cache = mdl.msa_forward(tokens, enc, d_h)
            assert out.tobytes() == want.tobytes()
            for name in ("q", "k", "v", "attn"):
                assert cache[name].tobytes() == ref_cache[name].tobytes(), name
            d_tokens = grad._msa_backward(d_out, cache, enc, d_h)
            d_want = grad._msa_backward(d_out, ref_cache, ref, d_h)
        assert d_tokens.tobytes() == d_want.tobytes()

    def test_other_matrices_not_detected(self):
        # one entry away from the crafted design: a permuted w_msa or w_q, a
        # w_v column with no source, [I; 0] or [I 0] with one stray 1
        cfg = mdl.ModelConfig(D=64, L=2, r=2)
        d, d_h = cfg.D, cfg.D_h
        rng = Rng(5)
        tokens = rng.normal(0.0, 1.0, 2 * 5 * d).reshape(2, 5, d)
        d_out = rng.normal(0.0, 1.0, tokens.size).reshape(tokens.shape)
        edits = {"w_msa": lambda w: w[::-1].copy(),  # a permutation
                 "w_q": lambda w: w[:, ::-1].copy(),  # one per head
                 "w_v": lambda w: _set(w, (1, 0, d_h), 0.0),  # a column with no source
                 "w_mlp1": lambda w: _set(w, (d, 0), 1.0),  # [I; 0], one stray 1
                 "w_mlp2": lambda w: _set(w, (0, d), 1.0)}  # [I 0], one stray 1
        for name, edit in edits.items():
            enc = craft_backbone(CraftConfig(seed=7), cfg).encoders[0]
            setattr(enc, name, edit(getattr(enc, name)))
            if name.startswith("w_mlp"):
                assert enc.crafted_attention() and not enc.copies_mlp()
                out, cache = mdl._mlp_forward(tokens, enc)
                want, pre, live = _wide_mlp(tokens, enc)
                assert out.tobytes() == want.tobytes() and cache["pre"].shape == pre.shape
                continue
            assert enc.copies_mlp() and not enc.crafted_attention(), name
            ref = _as_gemm(enc)
            out, cache = mdl.msa_forward(tokens, enc, d_h)
            assert out.tobytes() == mdl.msa_forward(tokens, ref, d_h)[0].tobytes()
            assert grad._msa_backward(d_out, cache, enc, d_h).tobytes() == \
                grad._msa_backward(d_out, cache, ref, d_h).tobytes()

    @pytest.mark.parametrize("cfg", [mdl.ModelConfig(),
                                     mdl.ModelConfig(D=64, L=2, r=2)])
    def test_crafted_matrices_detected_random_not(self, cfg):
        # a change that loses the crafted encoder, or takes a dense one for
        # it, fails here rather than only in wall time or bytes
        crafted = craft_backbone(CraftConfig(seed=7), cfg)
        for backbone, want in ((crafted, True), (mdl.random_backbone(cfg, Rng(3)), False),
                               (mixed_backbone(cfg, Rng(31)), False)):
            for enc in backbone.encoders:
                assert enc.crafted_attention() == enc.copies_mlp() == want

    def test_reassigned_weight_detected_again(self):
        cfg = mdl.ModelConfig()
        enc = craft_backbone(CraftConfig(seed=7), cfg).encoders[0]
        tokens = Rng(5).normal(0.0, 1.0, 7 * cfg.D).reshape(1, 7, cfg.D)
        ref = _as_gemm(enc)
        assert enc.crafted_attention() and not enc.w_msa.flags.writeable
        enc.w_msa = Rng(6).normal(0.0, 1.0, cfg.D * cfg.D).reshape(cfg.D, cfg.D)
        assert not enc.crafted_attention() and enc.w_msa.flags.writeable
        enc.w_msa = np.eye(cfg.D)
        assert enc.crafted_attention()
        assert mdl.msa_forward(tokens, enc, cfg.D_h)[0].tobytes() == \
            mdl.msa_forward(tokens, ref, cfg.D_h)[0].tobytes()


def _wide_mlp(z: np.ndarray, enc: mdl.EncoderParams):
    """(out, pre, live) of the MLP as 4D-wide GEMMs, selectors or not."""
    pre = mdl._dot(z, enc.w_mlp1.T) + enc.b_mlp1
    live = bool((pre < _PHI_SATURATION).any())
    out = mdl._dot(gelu(pre) if live else pre, enc.w_mlp2.T) + enc.b_mlp2
    return out, pre, live


def _wide_mlp_backward(d_out, pre, live, enc: mdl.EncoderParams) -> np.ndarray:
    d_pre = mdl._dot(d_out, enc.w_mlp2)
    if live:
        d_pre *= gelu_grad(pre)
    return mdl._dot(d_pre, enc.w_mlp1)


# z entries: a LayerNorm output's range, signed zeros, subnormals and +-1e300
_Z_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300, -1e300]),
    st.floats(-5.0, 5.0))


@st.composite
def _crafted_mlps(draw):
    """(enc, z, d_out): a crafted MLP, w_mlp1 = [I; 0] and w_mlp2 = [I 0],
    whose b_mlp1 entries sit past saturation unless one is moved below it or
    made non-finite (in the copied D units or the other 3D), with finite or
    non-finite z and d_out."""
    d = draw(st.integers(1, 6))
    gamma = draw(st.floats(10.0, 1e4))
    b1 = np.full(4 * d, gamma)
    where = draw(st.sampled_from(["none"] * 4 + ["copied", "other", "copied_nan",
                                                 "other_inf"]))
    if where != "none":
        at = draw(st.integers(0, d - 1)) + (0 if where.startswith("copied") else d)
        b1[at] = {"copied_nan": np.nan, "other_inf": np.inf}.get(
            where, draw(st.floats(-20.0, 8.9)))
    enc = _placeholder_encoder()
    enc.w_mlp1, enc.w_mlp2 = np.eye(4 * d, d), np.eye(d, 4 * d)
    enc.b_mlp1 = b1
    enc.b_mlp2 = draw(hnp.arrays(np.float64, d, elements=st.floats(-1e4, 1e4)))
    shape = (*draw(st.sampled_from([(), (2,)])), draw(st.integers(1, 5)), d)
    z = draw(hnp.arrays(np.float64, shape, elements=_Z_VALUES))
    d_out = draw(hnp.arrays(np.float64, shape, elements=_X_VALUES))
    data = draw(st.data())
    if draw(st.integers(0, 3)) == 3:
        z = _with_one(z, data, _NONFINITE)
    if draw(st.integers(0, 3)) == 3:
        d_out = _with_one(d_out, data, _NONFINITE)
    return enc, z, d_out


class TestNarrowMlp:
    """A crafted MLP runs at the width it copies, with the 4D-wide bytes."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=_crafted_mlps())
    def test_forward_and_backward_are_the_wide_gemms(self, case):
        enc, z, d_out = case
        assert enc.copies_mlp()
        with np.errstate(invalid="ignore", over="ignore"):
            want, pre, live = _wide_mlp(z, enc)
            out, cache = mdl._mlp_forward(z, enc)
            assert out.tobytes() == want.tobytes()
            assert cache["live"] == live
            # narrow exactly when z and pre are finite and no unit is live
            narrow = bool(np.isfinite(pre).all()) and not live
            assert cache["pre"].shape[-1] == (z.shape[-1] if narrow else 4 * z.shape[-1])
            d_z = grad._mlp_backward(d_out, cache, enc)
            assert d_z.tobytes() == _wide_mlp_backward(d_out, pre, live, enc).tobytes()

    @pytest.mark.parametrize("kind", ["random", "mixed", "crafted"])
    def test_only_crafted_encoders_narrow(self, kind):
        cfg = mdl.ModelConfig()
        backbone = {"random": lambda: mdl.random_backbone(cfg, Rng(3)),
                    "mixed": lambda: mixed_backbone(cfg, Rng(31)),
                    "crafted": lambda: craft_backbone(CraftConfig(seed=7), cfg)}[kind]()
        ads = mdl.AdapterSet.random(cfg, Rng(32), scale=0.1)
        _, _, cache = mdl.forward(synth_batch(3, cfg, seed=33), backbone, ads, cfg)
        width = cfg.D if kind == "crafted" else 4 * cfg.D
        assert [enc.copies_mlp() for enc in backbone.encoders] == \
            [kind == "crafted"] * cfg.num_encoders
        assert {sub["core"]["pre"].shape[-1] for sub in cache.sublayers
                if not sub["is_msa"]} == {width}
