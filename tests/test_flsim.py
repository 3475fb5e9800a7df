import inspect

import numpy as np
import pytest

from adapterleak import attack as attack_module
from adapterleak import flsim
from adapterleak.craft import CraftConfig
from adapterleak.dataio import synth_batch
from adapterleak.errors import ConfigError
from adapterleak.grad import backward_adapters
from adapterleak.model import AdapterSet, ModelConfig, forward, random_backbone
from adapterleak.numerics import _PHI_SATURATION, Rng

DESK = ModelConfig()


def tiny_cfg():
    return ModelConfig(D=16, L=2, num_encoders=2, P=4, C=3, H=8, W=8, r=4,
                       num_classes=5, adapter_activation="gelu")


@pytest.fixture(scope="module")
def random_setup():
    cfg = tiny_cfg()
    bb = random_backbone(cfg, Rng(3))
    ads = AdapterSet.random(cfg, Rng(4), scale=0.2)
    batch = synth_batch(3, cfg, seed=5)
    return cfg, bb, ads, batch


class TestLocalSteps:
    def test_local_step_equals_backward(self, random_setup):
        cfg, bb, ads, batch = random_setup
        g = flsim.local_step(batch, bb, ads, cfg)
        _, _, cache = forward(batch, bb, ads, cfg)
        expected = backward_adapters(cache, bb, ads, cfg)
        assert np.array_equal(g.flat(), expected.flat())

    def test_identical_users_identical_gradients(self, random_setup):
        cfg, bb, ads, batch = random_setup
        g1 = flsim.local_step(batch, bb, ads, cfg)
        g2 = flsim.local_step(batch, bb, ads, cfg)
        assert np.array_equal(g1.flat(), g2.flat())

    def test_fedavg_one_epoch_is_single_step_exactly(self, random_setup):
        cfg, bb, ads, batch = random_setup
        single = flsim.local_step(batch, bb, ads, cfg)
        proxy = flsim.local_fedavg(batch, bb, ads, cfg, epochs=1, lr=1e-4)
        assert np.array_equal(single.flat(), proxy.flat())

    def test_fedavg_five_epochs_close_to_single_step(self, random_setup):
        cfg, bb, ads, batch = random_setup
        single = flsim.local_step(batch, bb, ads, cfg).flat()
        proxy = flsim.local_fedavg(batch, bb, ads, cfg, epochs=5, lr=1e-4).flat()
        scale = np.abs(single).max()
        rel = np.abs(proxy - single) / np.maximum(np.abs(single), 1e-3 * scale)
        assert rel.max() < 0.1

    def test_zero_learning_rate_rejected(self, random_setup):
        cfg, bb, ads, batch = random_setup
        with pytest.raises(ConfigError):
            flsim.local_fedavg(batch, bb, ads, cfg, epochs=2, lr=0.0)


class TestDefenses:
    @pytest.fixture()
    def grads(self, random_setup):
        cfg, bb, ads, batch = random_setup
        return flsim.local_step(batch, bb, ads, cfg)

    def test_zero_noise_identity(self, grads):
        d = flsim.DefenseConfig(kind="gaussian_noise", noise_rel_sigma=0.0)
        out = flsim.apply_defense(grads, d, Rng(1))
        assert np.array_equal(out.flat(), grads.flat())

    def test_full_keep_identity(self, grads):
        d = flsim.DefenseConfig(kind="topk_prune", k_fraction=1.0)
        out = flsim.apply_defense(grads, d, Rng(2))
        assert np.array_equal(out.flat(), grads.flat())

    def test_topk_keeps_largest(self, grads):
        d = flsim.DefenseConfig(kind="topk_prune", k_fraction=0.25)
        out = flsim.apply_defense(grads, d, Rng(3)).flat()
        flat = grads.flat()
        k = int(np.ceil(0.25 * flat.size))
        assert np.count_nonzero(out) <= k
        kept = np.abs(flat[out != 0.0]).min()
        dropped = np.abs(flat[out == 0.0]).max()
        assert kept >= dropped - 1e-18

    def test_noise_norm_calibration(self, grads):
        d = flsim.DefenseConfig(kind="gaussian_noise", noise_rel_sigma=0.5)
        deltas = []
        for s in range(20):
            out = flsim.apply_defense(grads, d, Rng(100 + s))
            deltas.append(np.linalg.norm(out.flat() - grads.flat()))
        expected = 0.5 * np.linalg.norm(grads.flat())
        assert np.mean(deltas) == pytest.approx(expected, rel=0.15)

    def test_quantize_unbiased(self, grads):
        d = flsim.DefenseConfig(kind="stochastic_quantize", quant_levels=17)
        flat = grads.flat()
        acc = np.zeros_like(flat)
        trials = 400
        for s in range(trials):
            acc += flsim.apply_defense(grads, d, Rng(7000 + s)).flat()
        mean = acc / trials
        step = (flat.max() - flat.min()) / 16
        # per-coordinate unbiasedness: error shrinks as step/sqrt(trials)
        assert np.max(np.abs(mean - flat)) < 4 * step / np.sqrt(trials) + 1e-12

    def test_quantize_hits_levels(self, grads):
        d = flsim.DefenseConfig(kind="stochastic_quantize", quant_levels=5)
        out = flsim.apply_defense(grads, d, Rng(11)).flat()
        flat = grads.flat()
        lo, hi = flat.min(), flat.max()
        levels = lo + (hi - lo) / 4 * np.arange(5)
        dist = np.abs(out[:, None] - levels[None, :]).min(axis=1)
        assert dist.max() < 1e-12


class TestAggregate:
    def test_single_user_identity(self, random_setup):
        cfg, bb, ads, batch = random_setup
        g = flsim.local_step(batch, bb, ads, cfg)
        assert np.array_equal(flsim.aggregate([g]).flat(), g.flat())

    def test_two_equal_gradients_unchanged(self, random_setup):
        cfg, bb, ads, batch = random_setup
        g = flsim.local_step(batch, bb, ads, cfg)
        agg = flsim.aggregate([g, g.copy()])
        assert np.max(np.abs(agg.flat() - g.flat())) < 1e-18

    def test_matches_pooled_batch_gradient(self, random_setup):
        cfg, bb, ads, _ = random_setup
        from adapterleak.dataio import Batch

        b1 = synth_batch(2, cfg, seed=8)
        b2 = synth_batch(2, cfg, seed=9)
        agg = flsim.aggregate([flsim.local_step(b1, bb, ads, cfg),
                               flsim.local_step(b2, bb, ads, cfg)])
        pooled = Batch(np.concatenate([b1.images, b2.images]),
                       np.concatenate([b1.labels, b2.labels]))
        g = flsim.local_step(pooled, bb, ads, cfg)
        assert np.max(np.abs(agg.flat() - g.flat())) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            flsim.aggregate([])


class TestRunExperiment:
    def test_same_seed_identical_results(self):
        args = flsim.SetupArgs(DESK, CraftConfig(seed=7), 5, 1, (1,), 2)
        fl = flsim.FLConfig(users=2, batch_size=8, rounds=1, seed=5)
        r1 = flsim.run_experiment(flsim.prepare_attack(args), fl,
                                  flsim.DefenseConfig())
        r2 = flsim.run_experiment(flsim.prepare_attack(args), fl,
                                  flsim.DefenseConfig())
        assert r1.score.mean_mse == r2.score.mean_mse
        assert len(r1.merged.valid_patches) == len(r2.merged.valid_patches)
        for p1, p2 in zip(r1.merged.valid_patches, r2.merged.valid_patches):
            assert np.array_equal(p1.pixels, p2.pixels)

    def test_victim_index_validated(self):
        with pytest.raises(ConfigError):
            flsim.FLConfig(users=2, victim_index=2)

    def test_noise_defense_degrades_mse(self):
        setup = flsim.prepare_attack(
            flsim.SetupArgs(DESK, CraftConfig(seed=7), 5, 1, (1, 2, 3, 4), 3))
        mses = []
        for sigma in (0.0, 1.0):
            res = flsim.run_experiment(
                setup, flsim.FLConfig(users=2, batch_size=16, rounds=1, seed=5),
                flsim.DefenseConfig(kind="gaussian_noise", noise_rel_sigma=sigma))
            mses.append(res.score.mean_mse)
        assert mses[1] > mses[0]

    def test_attack_module_cannot_see_victim_data(self):
        # interface audit: the attack module must work from gradients, plan,
        # and encodings alone
        src = inspect.getsource(attack_module)
        for forbidden in ("Batch", "ForwardCache", "synth_batch", "forward(",
                          "victim", "dataio"):
            assert forbidden not in src, forbidden
        sig = inspect.signature(attack_module.run_attack)
        assert set(sig.parameters) == {"grads", "plan", "pos", "round_idx",
                                       "m_expected", "tol"}


def _setup_digest(setup: flsim.AttackSetup) -> str:
    import hashlib

    h = hashlib.sha256()
    arrays = [setup.backbone.embed, setup.backbone.class_token, setup.backbone.pos,
              setup.backbone.ln_f_w, setup.backbone.ln_f_b, setup.backbone.w_cls,
              setup.backbone.b_cls]
    for enc in setup.backbone.encoders:
        arrays += list(vars(enc).values())
    for adapters in setup.adapters:
        for a in range(len(adapters)):
            arrays += [adapters.w_down[a], adapters.b_down[a], adapters.w_up[a],
                       adapters.b_up[a]]
    plan = setup.plan
    arrays += [plan.stats_mu, plan.stats_sigma, plan.content_rows,
               plan.correction_rows, plan.e_pinv, plan.fingerprint_rows,
               *plan.thresholds.values()]
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr([vars(a) for a in plan.assignments]).encode())
    return h.hexdigest()


class TestSharedSetup:
    ARGS = flsim.SetupArgs(DESK, CraftConfig(seed=7), 5, 2, (1, 3), 2)

    @pytest.fixture(scope="class")
    def setup(self):
        return flsim.prepare_attack(self.ARGS)

    def test_args_are_a_key(self):
        same = flsim.SetupArgs(ModelConfig(), CraftConfig(seed=7), 5, 2, [1, 3], 2)
        assert same == self.ARGS and hash(same) == hash(self.ARGS)
        assert flsim.SetupArgs(ModelConfig(r=4), CraftConfig(seed=7), 5, 2,
                               (1, 3), 2) != self.ARGS

    @pytest.mark.parametrize("mode,defense", [
        ("single_step", flsim.DefenseConfig()),
        ("fedavg", flsim.DefenseConfig(kind="gaussian_noise", noise_rel_sigma=0.1)),
        ("single_step", flsim.DefenseConfig(kind="topk_prune", k_fraction=0.5)),
    ])
    def test_experiments_leave_setup_unchanged(self, setup, mode, defense):
        before = _setup_digest(setup)
        fl = flsim.FLConfig(users=2, batch_size=4, rounds=2, seed=5, mode=mode,
                            local_epochs=2)
        flsim.run_experiment(setup, fl, defense)
        assert _setup_digest(setup) == before

    def test_shared_setup_gives_fresh_setup_results(self, setup):
        fl = flsim.FLConfig(users=2, batch_size=4, rounds=2, seed=5)
        shared = flsim.run_experiment(setup, fl, flsim.DefenseConfig())
        fresh = flsim.run_experiment(flsim.prepare_attack(self.ARGS), fl,
                                     flsim.DefenseConfig())
        assert repr(shared.score) == repr(fresh.score)
        assert shared.merged.coverage == fresh.merged.coverage

    @pytest.mark.parametrize("seed,rounds", [(6, 2), (5, 1)])
    def test_setup_for_other_seed_or_rounds_rejected(self, setup, seed, rounds):
        fl = flsim.FLConfig(users=2, batch_size=4, rounds=rounds, seed=seed)
        with pytest.raises(ConfigError):
            flsim.run_experiment(setup, fl, flsim.DefenseConfig())

    def test_concurrent_cells_read_one_setup(self):
        # more workers than cores and frequent thread switches: every cell
        # must still equal its serial result and leave the setup untouched
        import sys

        from adapterleak.grad import parallel_map

        mc = ModelConfig(D=64, L=2, num_encoders=2, r=4, num_classes=5)
        setup = flsim.prepare_attack(flsim.SetupArgs(
            mc, CraftConfig(seed=7, margin=10.0), 11, 1, (1, 2), 2, "uniform", 64))
        before = _setup_digest(setup)
        cells = [(flsim.FLConfig(users=2, batch_size=m, seed=11), defense)
                 for m in (2, 4, 6)
                 for defense in (flsim.DefenseConfig(),
                                 flsim.DefenseConfig(kind="gaussian_noise",
                                                     noise_rel_sigma=0.1))]

        def score(cell):
            return repr(flsim.run_experiment(setup, *cell).score)

        serial = [score(cell) for cell in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            concurrent = parallel_map(score, cells * 2, 8)
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial * 2
        assert _setup_digest(setup) == before


# run_experiment on four users with victim 2, digested once and never to
# move: the victim's (defended) gradients, merged coverage and score. The
# victim's noise comes from the defense stream's key rho * users + victim.
PIN_RUN_EXPERIMENT = {
    "gaussian_noise": "d707628f2b2bc624",
    "stochastic_quantize": "8e7a14c87ce1f2b0",
}


class TestRunExperimentPinned:
    ARGS = flsim.SetupArgs(DESK, CraftConfig(seed=7), 5, 2, (1, 3), 2)
    DEFENSES = {
        "gaussian_noise": flsim.DefenseConfig(kind="gaussian_noise", noise_rel_sigma=0.1),
        "stochastic_quantize": flsim.DefenseConfig(kind="stochastic_quantize"),
    }

    @pytest.fixture(scope="class")
    def setup(self):
        return flsim.prepare_attack(self.ARGS)

    @pytest.mark.parametrize("defense", sorted(PIN_RUN_EXPERIMENT))
    def test_bytes_unchanged(self, setup, defense):
        import hashlib

        from adapterleak.grad import blas_single_thread

        fl = flsim.FLConfig(users=4, batch_size=8, rounds=2, local_epochs=2,
                            victim_index=2, mode="fedavg", seed=5)
        # the noise scale's norm is a BLAS dot product whose rounding
        # depends on the BLAS thread count, so pin it at one thread, as
        # sweep cells run
        with blas_single_thread():
            res = flsim.run_experiment(setup, fl, self.DEFENSES[defense])
        h = hashlib.sha256(np.ascontiguousarray(res.victim_grads.flat()).tobytes())
        h.update(repr((res.merged.coverage, repr(res.score))).encode())
        assert h.hexdigest()[:16] == PIN_RUN_EXPERIMENT[defense]

    def test_user_count_only_sets_keys(self, setup):
        # without a defense the victim's share does not depend on how many
        # users take part
        results = [flsim.run_experiment(
            setup, flsim.FLConfig(users=users, batch_size=8, rounds=2, seed=5),
            flsim.DefenseConfig()) for users in (1, 2, 4)]
        first = results[0]
        for res in results[1:]:
            assert res.victim_grads.flat().tobytes() == first.victim_grads.flat().tobytes()
            assert repr(res.score) == repr(first.score)
            assert res.merged.coverage == first.merged.coverage

    def test_only_the_victim_trains(self, setup, monkeypatch):
        # one batch and epochs x rounds local steps, however many users
        calls = {"local_step": 0, "synth_batch": 0}

        def counted(name):
            fn = getattr(flsim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(flsim, name, counted(name))
        fl = flsim.FLConfig(users=4, batch_size=8, rounds=2, local_epochs=3,
                            mode="fedavg", seed=5)
        flsim.run_experiment(setup, fl, flsim.DefenseConfig())
        assert calls == {"local_step": 6, "synth_batch": 1}


# local_step gradients and forward's loss and logits, pinned: each case
# below was digested once and must never move. "desk" is the crafted desk
# setup's round 0 (relu, r=8, M=16), "rounds_fedavg" is local_fedavg on the
# perfbench rounds shape (r=4, round 1, 5 epochs, lr 1e-4), "gelu_class" a
# random backbone with GELU adapters and the class-token head, "mixed_mlp" a
# random backbone whose encoders 0, 3 and 4 have every MLP unit saturated
# while the other encoders keep live units.
MIXED_SATURATED = (0, 3, 4)
PIN_LOCAL_STEP = {
    "desk": ("fadcb1614e2e6cb5", "93d3139ffa2e18f7", "7e85b74e59d378c6"),
    "rounds_fedavg": ("6a42e50c1935cf9a", "95a652ed25406166", "6f149652e927db28"),
    "gelu_class": ("142b8ca1d98e1c24", "aaa88e6a259e31ab", "01d7993e8d08337d"),
    "mixed_mlp": ("359cc336b192556a", "097478d85597dc53", "7636d017b7c3bdbc"),
}


def _digest(*arrays) -> str:
    import hashlib

    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def mixed_backbone(mc: ModelConfig, rng: Rng):
    """random_backbone with every MLP unit of MIXED_SATURATED's encoders
    biased far past the GELU saturation point."""
    bb = random_backbone(mc, rng)
    for e in MIXED_SATURATED:
        bb.encoders[e].b_mlp1 = np.maximum(bb.encoders[e].b_mlp1, 30.0)
    return bb


def _pinned_local_step(case: str) -> tuple[str, str, str]:
    if case == "gelu_class":
        mc = ModelConfig(adapter_activation="gelu", head_mode="class_token")
        bb = random_backbone(mc, Rng(21))
        ads = AdapterSet.random(mc, Rng(22), scale=0.1)
        batch = synth_batch(6, mc, seed=23, kind="uniform")
        grads = flsim.local_step(batch, bb, ads, mc)
    elif case == "mixed_mlp":
        mc = ModelConfig()
        bb = mixed_backbone(mc, Rng(31))
        ads = AdapterSet.random(mc, Rng(32), scale=0.1)
        batch = synth_batch(5, mc, seed=33, kind="uniform")
        grads = flsim.local_step(batch, bb, ads, mc)
    else:
        mc, rounds, rho = (DESK, 1, 0) if case == "desk" else (ModelConfig(r=4), 4, 1)
        setup = flsim.prepare_attack(flsim.SetupArgs(mc, CraftConfig(seed=7), 11, rounds,
                                                     (1, 2, 3, 4), 3))
        bb, ads = setup.backbone, setup.adapters[rho]
        batch = synth_batch(16, mc, seed=int(flsim._data_rng(11).spawn(1).seed),
                            kind="smooth")
        if case == "desk":
            grads = flsim.local_step(batch, bb, ads, mc)
        else:
            grads = flsim.local_fedavg(batch, bb, ads, mc, epochs=5, lr=1e-4)
    logits, loss, _ = forward(batch, bb, ads, mc)
    return _digest(grads.flat()), _digest(loss), _digest(logits)


class TestLocalStepPinned:
    @pytest.mark.parametrize("case", sorted(PIN_LOCAL_STEP))
    def test_bytes_unchanged(self, case):
        # (gradients, loss, logits)
        assert _pinned_local_step(case) == PIN_LOCAL_STEP[case]

    def test_mixed_case_mixes(self):
        # the mixed_mlp pin covers both MLP kinds in one pass
        mc = ModelConfig()
        _, _, cache = forward(synth_batch(5, mc, seed=33, kind="uniform"),
                              mixed_backbone(mc, Rng(31)),
                              AdapterSet.random(mc, Rng(32), scale=0.1), mc)
        saturated = [bool(sub["core"]["pre"].min() >= _PHI_SATURATION)
                     for sub in cache.sublayers if not sub["is_msa"]]
        assert saturated == [e in MIXED_SATURATED for e in range(mc.num_encoders)]
