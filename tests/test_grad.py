import importlib.util
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from adapterleak import grad
from adapterleak.craft import CraftConfig, build_attack_plan, craft_adapters, craft_backbone
from adapterleak.dataio import Batch, synth_batch
from adapterleak.errors import ConfigError
from adapterleak.grad import (backward_adapters, blas_single_thread,
                              finite_diff_check, finite_diff_gradients, parallel_map)
from adapterleak.model import (AdapterSet, ForwardCache, ModelConfig, cross_entropy,
                               forward, random_backbone)
from adapterleak.numerics import Rng
from adapterleak.stats import estimate_patch_stats


def tiny_cfg(**kw):
    base = dict(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                num_classes=5, adapter_activation="gelu")
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = tiny_cfg()
    bb = random_backbone(cfg, Rng(7))
    ads = AdapterSet.random(cfg, Rng(8), scale=0.2)
    batch = synth_batch(2, cfg, seed=3, kind="uniform")
    return cfg, bb, ads, batch


class TestBackward:
    def test_tiny_config_matches_central_differences(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        report = finite_diff_check(bb, ads, batch, cfg, h=1e-5,
                                   tolerance=1e-6, workers=1)
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"

    @pytest.mark.parametrize("kw", [
        dict(head_mode="class_token"), dict(adapter_activation="relu"), dict(L=4),
        dict(L=8, adapter_activation="relu", head_mode="class_token")],
        ids=["class_token", "relu", "4_heads", "8_heads_relu_class_token"])
    def test_variant_matches_central_differences(self, kw):
        cfg = tiny_cfg(**kw)
        bb = random_backbone(cfg, Rng(31))
        ads = AdapterSet.random(cfg, Rng(32), scale=0.2)
        batch = synth_batch(3, cfg, seed=33, kind="uniform")
        report = finite_diff_check(bb, ads, batch, cfg, h=1e-5,
                                   tolerance=1e-6, workers=1)
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_mixed_saturated_and_live_mlps_match_central_differences(self, activation):
        cfg = tiny_cfg(num_encoders=3, adapter_activation=activation)
        bb = random_backbone(cfg, Rng(41))
        bb.encoders[1].b_mlp1 = np.maximum(bb.encoders[1].b_mlp1, 30.0)
        ads = AdapterSet.random(cfg, Rng(42), scale=0.2)
        batch = synth_batch(3, cfg, seed=43, kind="uniform")
        _, _, cache = forward(batch, bb, ads, cfg)
        assert [sub["core"]["live"] for sub in cache.sublayers[1::2]] == [True, False, True]
        report = finite_diff_check(bb, ads, batch, cfg, h=1e-5,
                                   tolerance=1e-6, workers=1)
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"

    def test_backward_ends_at_adapter_0(self, monkeypatch):
        # sublayer 0's core and LayerNorm backward would feed no adapter
        cfg = tiny_cfg(num_encoders=6)
        bb = random_backbone(cfg, Rng(44))
        ads = AdapterSet.random(cfg, Rng(45), scale=0.2)
        _, _, cache = forward(synth_batch(2, cfg, seed=46), bb, ads, cfg)
        calls = {"_msa_backward": 0, "_ln_backward": 0}
        for name in calls:
            def counted(*args, _real=getattr(grad, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(grad, name, counted)
        backward_adapters(cache, bb, ads, cfg)
        # one attention per encoder but the first; the final LayerNorm and
        # one per sublayer but the first
        assert calls == {"_msa_backward": 5, "_ln_backward": 12}

    def test_relu_gate_zeroes_dead_neurons(self):
        cfg = tiny_cfg(adapter_activation="relu")
        bb = random_backbone(cfg, Rng(9))
        ads = AdapterSet.random(cfg, Rng(10), scale=0.2)
        # force neuron 0 of adapter 1 to never fire
        ads.w_down[1, 0] = 0.0
        ads.b_down[1, 0] = -5.0
        batch = synth_batch(3, cfg, seed=4)
        _, _, cache = forward(batch, bb, ads, cfg)
        assert np.all(cache.sublayers[1]["adapter"]["v"][..., 0] < 0)
        g = backward_adapters(cache, bb, ads, cfg)
        assert np.all(g.w_down[1][0] == 0.0)
        assert g.b_down[1][0] == 0.0

    def test_nonzero_bias_grad_implies_some_activation(self):
        cfg = tiny_cfg(adapter_activation="relu")
        bb = random_backbone(cfg, Rng(11))
        ads = AdapterSet.random(cfg, Rng(12), scale=0.2)
        batch = synth_batch(3, cfg, seed=5)
        _, _, cache = forward(batch, bb, ads, cfg)
        g = backward_adapters(cache, bb, ads, cfg)
        for a in range(cfg.num_adapters):
            fired = (cache.sublayers[a]["adapter"]["v"] > 0).any(axis=(0, 1))
            nonzero = g.b_down[a] != 0.0
            assert np.all(~nonzero | fired)

    def test_batch_gradient_is_mean_of_per_image(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        _, _, cache = forward(batch, bb, ads, cfg)
        g = backward_adapters(cache, bb, ads, cfg)
        singles = []
        for i in range(batch.size):
            single = Batch(batch.images[i : i + 1], batch.labels[i : i + 1])
            _, _, ci = forward(single, bb, ads, cfg)
            singles.append(backward_adapters(ci, bb, ads, cfg).flat())
        mean = np.mean(singles, axis=0)
        assert np.max(np.abs(g.flat() - mean)) < 1e-15

    def test_gradient_linearity_over_concatenation(self):
        cfg = tiny_cfg()
        bb = random_backbone(cfg, Rng(13))
        ads = AdapterSet.random(cfg, Rng(14), scale=0.2)
        b1 = synth_batch(2, cfg, seed=6)
        b2 = synth_batch(2, cfg, seed=7)
        both = Batch(np.concatenate([b1.images, b2.images]),
                     np.concatenate([b1.labels, b2.labels]))

        def grad_of(b):
            _, _, c = forward(b, bb, ads, cfg)
            return backward_adapters(c, bb, ads, cfg).flat()

        lhs = grad_of(both)
        rhs = (grad_of(b1) + grad_of(b2)) / 2.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_head_scaling_preserves_pair_ratio(self):
        # crafted gating admits one contributing token per firing neuron
        # (single image, single target position), so scaling the classifier
        # rescales each dW row and its db by a common per-neuron factor
        cfg = ModelConfig()
        cc = CraftConfig(seed=21)
        bb, ei = craft_backbone(cc, cfg)
        pub = synth_batch(64, cfg, seed=60, kind="uniform")
        stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, cfg)
        plan = build_attack_plan(stats, cfg, [1], 1, 1, ei, cc)
        ads = craft_adapters(plan, bb, cc, cfg, 0)
        batch = synth_batch(1, cfg, seed=61, kind="uniform")

        def ratios(backbone):
            _, _, c = forward(batch, backbone, ads, cfg)
            g = backward_adapters(c, backbone, ads, cfg)
            out = {}
            for j in range(cfg.r):
                if g.b_down[0][j] != 0.0:
                    out[j] = g.w_down[0][j] / g.b_down[0][j]
            return out

        r1 = ratios(bb)
        bb.w_cls = bb.w_cls * 3.0
        r2 = ratios(bb)
        assert r1, "expected at least one firing neuron"
        for j, ratio in r1.items():
            assert np.max(np.abs(ratio - r2[j])) < 1e-9

    def test_missing_cache_rejected(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        from adapterleak.errors import ShapeError

        with pytest.raises(ShapeError):
            backward_adapters(ForwardCache(), bb, ads, cfg)


class TestFiniteDiffCheck:
    def test_crafted_parameters_tiny_config(self):
        # desk-dim architecture at reduced width; crafted gradients sit at
        # ~1e-11, so the floor guards the unverifiable ones
        cfg = ModelConfig(D=32, L=2, num_encoders=2, P=2, C=3, H=4, W=4, r=4,
                          num_classes=5, adapter_activation="gelu")
        cc = CraftConfig(seed=5, margin=8.0)
        bb, ei = craft_backbone(cc, cfg)
        pub = synth_batch(64, cfg, seed=50, kind="uniform")
        stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, cfg)
        plan = build_attack_plan(stats, cfg, [1], 1, 1, ei, cc)
        ads = craft_adapters(plan, bb, cc, cfg, 0)
        batch = synth_batch(2, cfg, seed=51, kind="uniform")
        report = finite_diff_check(bb, ads, batch, cfg, workers=1)
        assert report.max_rel_err < 1e-6

    def test_zero_batch_still_checks(self, tiny_setup):
        cfg, bb, ads, _ = tiny_setup
        batch = Batch(np.zeros((2, 3, 8, 8)), np.array([0, 1]))
        report = finite_diff_check(bb, ads, batch, cfg, workers=1)
        assert report.passed

    def test_zero_tolerance_requires_identity(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        report = finite_diff_check(bb, ads, batch, cfg, tolerance=0.0, workers=1)
        assert not report.passed  # analytic and FD never match bitwise

    def test_invalid_h_rejected(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        with pytest.raises(ValueError):
            finite_diff_gradients(forward(batch, bb, ads, cfg)[2], bb, ads, cfg, h=0.0)

    def test_threaded_matches_sequential(self, tiny_setup):
        cfg, bb, ads, batch = tiny_setup
        cache = forward(batch, bb, ads, cfg)[2]
        f1 = finite_diff_gradients(cache, bb, ads, cfg, workers=1).flat()
        f2 = finite_diff_gradients(cache, bb, ads, cfg, workers=2).flat()
        assert np.array_equal(f1, f2)

    def test_backbone_edited_in_place_is_checked_as_edited(self):
        # the oracle must differentiate the backbone as it is at call time,
        # not a plan of it left over from an earlier call
        cfg = ModelConfig(D=16, L=2, num_encoders=2, r=2, C=1,
                          adapter_activation="gelu")
        rng = Rng(3)
        bb = random_backbone(cfg, rng.spawn(1))
        ads = AdapterSet.random(cfg, rng.spawn(2), scale=0.2)
        batch = synth_batch(2, cfg, seed=4, kind="uniform")
        finite_diff_gradients(forward(batch, bb, ads, cfg)[2], bb, ads, cfg, workers=1)
        for enc in bb.encoders:
            enc.b_mlp1[:] = 0.0
            enc.ln2_w *= 2.0
        report = finite_diff_check(bb, ads, batch, cfg, workers=1)
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"


def brute_central(bb, ads, batch, cfg, a, kind, pos, h=1e-5):
    """Central difference of the batch loss through ``model.forward``."""
    losses = []
    for step in (h, -h):
        pert = ads.copy()
        getattr(pert, kind)[a][pos] += step
        losses.append(forward(batch, bb, pert, cfg)[1])
    return (losses[0] - losses[1]) / (2.0 * h)


class TestUnmovedParameters:
    A, J = 2, 1  # adapter and bottleneck unit under test

    def unit_entries(self, g):
        a, j = self.A, self.J
        return np.concatenate([g.w_down[a][j], g.b_down[a][j : j + 1], g.w_up[a][:, j]])

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_dead_unit_is_exactly_zero_and_matches_brute_force(self, activation):
        cfg = tiny_cfg(adapter_activation=activation)
        bb = random_backbone(cfg, Rng(7))
        ads = AdapterSet.random(cfg, Rng(8), scale=0.2)
        ads.b_down[self.A, self.J] = -1e3
        batch = synth_batch(2, cfg, seed=3, kind="uniform")
        _, _, cache = forward(batch, bb, ads, cfg)
        moved = grad._moved(cache, cfg, 1e-5)
        assert not self.unit_entries(moved).any()
        assert moved.b_up.all()
        fd = finite_diff_gradients(cache, bb, ads, cfg, workers=1)
        entries = self.unit_entries(fd)
        assert np.all(entries == 0.0)
        for kind, pos in (("w_down", (self.J, 0)), ("w_down", (self.J, 5)),
                          ("b_down", self.J), ("w_up", (3, self.J))):
            assert brute_central(bb, ads, batch, cfg, self.A, kind, pos) == 0.0, kind
        # a moved entry is differenced and agrees with brute force
        live = (int(np.flatnonzero(moved.b_down[self.A])[0]), 5)
        assert moved.w_down[self.A][live] and fd.w_down[self.A][live] != 0.0
        brute = brute_central(bb, ads, batch, cfg, self.A, "w_down", live)
        assert abs(brute - fd.w_down[self.A][live]) < 1e-9

    def test_barely_live_gelu_unit_is_kept(self):
        cfg = tiny_cfg()
        bb = random_backbone(cfg, Rng(7))
        ads = AdapterSet.random(cfg, Rng(8), scale=0.2)
        ads.w_down[self.A, self.J] = 0.0
        ads.b_down[self.A, self.J] = -30.0  # Phi(-30) ~ 5e-198: tiny, not zero
        batch = synth_batch(2, cfg, seed=3, kind="uniform")
        _, _, cache = forward(batch, bb, ads, cfg)
        act = cache.sublayers[self.A]["adapter"]["act"][..., self.J]
        assert np.all(act != 0.0) and np.all(np.abs(act) < 1e-190)
        inp = cache.sublayers[self.A]["adapter"]["input"]
        moved = self.unit_entries(grad._moved(cache, cfg, 1e-5))
        assert np.array_equal(moved[: cfg.D], (inp != 0).any(axis=(0, 1)))
        assert moved[cfg.D :].all()

    def test_relu_unit_just_below_zero_is_kept(self):
        cfg = tiny_cfg(adapter_activation="relu")
        bb = random_backbone(cfg, Rng(7))
        ads = AdapterSet.random(cfg, Rng(8), scale=0.2)
        ads.w_down[self.A, self.J] = 0.0
        ads.b_down[self.A, self.J] = -0.5e-5  # a +h step crosses zero
        batch = synth_batch(2, cfg, seed=3, kind="uniform")
        _, _, cache = forward(batch, bb, ads, cfg)
        moved = grad._moved(cache, cfg, 1e-5)
        assert moved.b_down[self.A][self.J]
        assert not moved.w_up[self.A][:, self.J].any()  # act is 0 everywhere

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_fused_suffix_matches_forward(self, activation):
        cfg = tiny_cfg(adapter_activation=activation)
        bb = random_backbone(cfg, Rng(7))
        ads = AdapterSet.random(cfg, Rng(8), scale=0.2)
        batch = synth_batch(3, cfg, seed=3, kind="uniform")
        logits, _, cache = forward(batch, bb, ads, cfg)
        _, _, expected = cross_entropy(logits, batch.labels)
        encs = bb.encoders
        plans = [grad._MlpPlan(encs[s // 2]) if s % 2 else grad._MsaPlan(encs[s // 2])
                 for s in range(cfg.num_adapters)] + [grad._HeadPlan(bb)]
        ws = grad._Workspace(batch.size * (cfg.N + 1), cfg)
        for a, sub in enumerate(cache.sublayers):
            tokens = sub["u"] + sub["a_out"]
            losses = grad._suffix_losses(tokens, a, plans, ads, cfg, batch.labels, ws)
            assert np.max(np.abs(losses - expected)) < 1e-12, a


class TestRefinement:
    def test_stencil_rescues_central_truncation(self, tiny_setup):
        # at h = 3e-4 the central pass's O(h^2) error exceeds 1e-6 somewhere
        cfg, bb, ads, batch = tiny_setup
        report = finite_diff_check(bb, ads, batch, cfg, h=3e-4, workers=1)
        assert report.n_refined > 0
        assert report.central_max_rel_err >= 1e-6 > report.max_rel_err
        assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"

    def test_scaled_analytic_entry_still_fails(self, tiny_setup, monkeypatch):
        cfg, bb, ads, batch = tiny_setup
        real = grad.backward_adapters

        def mutated(*args):
            g = real(*args)
            flat = g.flat()
            k = int(np.argmax(np.abs(flat)))
            flat[k] *= 1.0 + 1e-5
            return AdapterSet.from_flat(flat, g)

        monkeypatch.setattr(grad, "backward_adapters", mutated)
        report = finite_diff_check(bb, ads, batch, cfg, workers=1)
        assert report.n_refined >= 1
        assert not report.passed
        assert report.max_rel_err > 5e-6


class TestThreadCount:
    def test_variable_caps_the_cores(self, monkeypatch):
        monkeypatch.setattr(grad.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.delenv("PEFTLEAK_THREADS", raising=False)
        assert grad.thread_count() == 3
        for env, expected in (("1", 1), ("2", 2), ("3", 3), ("64", 3)):
            monkeypatch.setenv("PEFTLEAK_THREADS", env)
            assert grad.thread_count() == expected, env

    @pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
    def test_invalid_value_is_config_error(self, monkeypatch, env):
        monkeypatch.setenv("PEFTLEAK_THREADS", env)
        with pytest.raises(ConfigError):
            grad.thread_count()


class TestGradientContainers:
    def test_flat_round_trip(self):
        cfg = tiny_cfg()
        g = AdapterSet.zeros(cfg)
        g.w_down += 1.0
        g.b_up += 2.0
        back = AdapterSet.from_flat(g.flat(), g)
        assert np.array_equal(back.w_down, g.w_down)
        assert np.array_equal(back.b_up, g.b_up)


HAS_THREADPOOLCTL = importlib.util.find_spec("threadpoolctl") is not None
needs_blas_cap = pytest.mark.skipif(
    not HAS_THREADPOOLCTL and grad._openblas_thread_calls() is None,
    reason="neither threadpoolctl nor numpy's bundled OpenBLAS thread calls")


def blas_threads() -> int:
    if HAS_THREADPOOLCTL:
        from threadpoolctl import threadpool_info

        return max(i["num_threads"] for i in threadpool_info() if i["user_api"] == "blas")
    return grad._openblas_thread_calls()[0]()


@pytest.fixture
def blas_at_two():
    """BLAS at two threads (where the cores allow), so a missed restore shows."""
    if HAS_THREADPOOLCTL:
        from threadpoolctl import threadpool_limits

        with threadpool_limits(limits=2, user_api="blas"):
            yield blas_threads()
        return
    get, set_ = grad._openblas_thread_calls()
    old = get()
    set_(2)
    try:
        yield get()
    finally:
        set_(old)


class TestBlasCap:
    def test_src_imports_from_scipy_only_special(self):
        # the cap reaches numpy's OpenBLAS only; scipy bundles its own
        import ast
        from pathlib import Path

        src = Path(grad.__file__).resolve().parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [(path.name, n) for n in names
                          if n.split(".")[0] == "scipy"
                          and n.split(".")[:2] != ["scipy", "special"]]
        assert found == []

    @needs_blas_cap
    def test_cap_reads_back_one_and_restores(self, blas_at_two):
        before = blas_at_two
        with blas_single_thread() as path:
            assert path in ("threadpoolctl", "openblas")
            assert blas_threads() == 1
        assert blas_threads() == before

    @needs_blas_cap
    def test_pool_runs_capped_and_restores(self, tiny_setup, monkeypatch, blas_at_two):
        cfg, bb, ads, batch = tiny_setup
        before = blas_at_two
        seen = []
        real = grad._suffix_losses

        def spy(*args, **kwargs):
            seen.append((threading.get_ident(), blas_threads()))
            return real(*args, **kwargs)

        monkeypatch.setattr(grad, "_suffix_losses", spy)
        finite_diff_gradients(forward(batch, bb, ads, cfg)[2], bb, ads, cfg, workers=2)
        assert {count for _, count in seen} == {1}
        assert threading.get_ident() not in {ident for ident, _ in seen}
        assert blas_threads() == before

    @needs_blas_cap
    def test_count_restored_after_pool_raises(self, tiny_setup, monkeypatch, blas_at_two):
        cfg, bb, ads, batch = tiny_setup
        before = blas_at_two

        def boom(*args, **kwargs):
            raise RuntimeError("suffix failed")

        monkeypatch.setattr(grad, "_suffix_losses", boom)
        with pytest.raises(RuntimeError, match="suffix failed"):
            finite_diff_gradients(forward(batch, bb, ads, cfg)[2], bb, ads, cfg, workers=2)
        assert blas_threads() == before

    def test_uncapped_blas_falls_back_to_one_thread(self, monkeypatch, capsys):
        @contextmanager
        def no_cap():
            yield None

        monkeypatch.setattr(grad, "blas_single_thread", no_cap)
        idents = parallel_map(lambda x: threading.get_ident(), range(6), 3)
        assert set(idents) == {threading.get_ident()}
        assert "cannot be capped" in capsys.readouterr().err
