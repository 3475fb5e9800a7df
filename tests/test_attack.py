import numpy as np
import pytest

from adapterleak import attack as atk
from adapterleak import oracle
from adapterleak.craft import (CraftConfig, build_attack_plan, craft_adapters,
                               craft_backbone)
from adapterleak.dataio import Batch, synth_batch
from adapterleak.errors import EmptyBinError
from adapterleak.grad import backward_adapters
from adapterleak.model import ModelConfig, forward, unpatchify
from adapterleak.numerics import Rng
from adapterleak.stats import content_statistics, estimate_patch_stats

DESK = ModelConfig()


def make_pipeline(positions, s_t, seed=7, rounds=1, fingerprint=False):
    cc = CraftConfig(seed=seed, fingerprint_enabled=fingerprint)
    bb, ei = craft_backbone(cc, DESK)
    pub = synth_batch(256, DESK, seed=999, kind="uniform")
    stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, DESK)
    delta = 1.0
    if fingerprint:
        from adapterleak.craft import measure_fingerprint_delta

        delta = measure_fingerprint_delta(pub.images, bb.embed, DESK)
    plan = build_attack_plan(stats, DESK, positions, s_t, rounds, ei, cc, delta)
    return cc, bb, plan


def bin_mid_batch(bb, plan, t, rng_seed=5, extra_positions_random=True):
    """One patch per recoverable interval of position t, placed mid-bin."""
    grid = plan.grid(t, 0)
    intervals = oracle.recoverable_intervals(plan, t, 0)
    mids = []
    for lo, hi, q in intervals:
        mids.append(lo + 0.6 * (grid[1] - grid[0]) if not np.isfinite(hi)
                    else 0.5 * (lo + hi))
    epc = bb.pos[t, plan.content_rows]
    rng = Rng(rng_seed)
    imgs = np.empty((len(mids), 3, 8, 8))
    for i, c in enumerate(mids):
        x = (c / (0.5 * (epc @ epc))) * epc
        noise = rng.uniform(48) * 0.6 - 0.3
        noise -= (noise @ epc) / (epc @ epc) * epc
        x = x + noise
        patches = rng.uniform(4 * 48).reshape(4, 48) * 1.6 - 0.8
        patches[t - 1] = x
        imgs[i] = unpatchify(patches, 4, 3, 8, 8)
    return Batch(imgs, Rng(rng_seed + 1).integers(0, 10, len(mids)))


@pytest.fixture(scope="module")
def isolated_run():
    cc, bb, plan = make_pipeline([1], 2)
    adapters = craft_adapters(plan, bb, cc, DESK, 0)
    batch = bin_mid_batch(bb, plan, 1)
    _, _, cache = forward(batch, bb, adapters, DESK)
    grads = backward_adapters(cache, bb, adapters, DESK)
    report = atk.run_attack(grads, plan, bb.pos, 0, batch.size)
    return cc, bb, plan, batch, grads, report


class TestRecoverEmbedding:
    def test_synthetic_construction_exact(self):
        rng = Rng(3)
        y = rng.normal(0, 10, 96)
        g1, g2 = 0.37, -0.21
        dw_j = (g1 + g2) * y
        dw_j1 = g2 * y
        out = atk.recover_embedding(dw_j, g1 + g2, dw_j1, g2)
        assert np.max(np.abs(out - y)) < 1e-12

    def test_zero_denominator_raises(self):
        with pytest.raises(EmptyBinError):
            atk.recover_embedding(np.ones(4), 0.5, np.ones(4), 0.5)

    def test_pair_order_symmetry(self):
        rng = Rng(4)
        dw_j, dw_j1 = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        a = atk.recover_embedding(dw_j, 0.9, dw_j1, 0.4)
        b = atk.recover_embedding(dw_j1, 0.4, dw_j, 0.9)
        assert np.allclose(a, b, rtol=0, atol=1e-15)


class TestRecoverPatch:
    def test_pure_position_encoding_gives_zero(self, isolated_run):
        _, bb, plan, *_ = isolated_run
        x = atk.recover_patch(bb.pos[1].copy(), plan.e_pinv, bb.pos[1])
        assert np.max(np.abs(x)) < 1e-12

    def test_exact_embedding_exact_pixels(self, isolated_run):
        _, bb, plan, *_ = isolated_run
        rng = Rng(6)
        x = rng.uniform(48) * 2 - 1
        y = bb.embed @ x + bb.pos[2]
        back = atk.recover_patch(y, plan.e_pinv, bb.pos[2])
        assert np.max(np.abs(back - x)) < 1e-12


class TestDetect:
    def test_all_zero_gradients_empty(self, isolated_run):
        _, _, plan, batch, grads, _ = isolated_run
        zero = grads.copy()
        zero.w_down[:] = 0.0
        zero.b_down[:] = 0.0
        assert atk.detect_active_bins(zero, plan) == []

    def test_infinite_tolerance_empty(self, isolated_run):
        _, _, plan, _, grads, _ = isolated_run
        assert atk.detect_active_bins(grads, plan, tol=np.inf) == []

    def test_every_recoverable_bin_flagged(self, isolated_run):
        _, _, plan, batch, grads, _ = isolated_run
        hits = atk.detect_active_bins(grads, plan)
        expected = {q for _, _, q in oracle.recoverable_intervals(plan, 1, 0)}
        assert {h.bin_index for h in hits} == expected


class TestEndToEnd:
    def test_isolated_bins_recovered_exactly(self, isolated_run):
        _, bb, plan, batch, _, report = isolated_run
        stats_mn = content_statistics(batch.images, bb.embed, bb.pos, DESK)
        truth = oracle.ground_truth_patches(batch, DESK)
        labels = oracle.match_patches(report, stats_mn)
        n_intervals = len(oracle.recoverable_intervals(plan, 1, 0))
        valid = report.valid_patches
        assert len(valid) == n_intervals
        for patch, m in zip(valid, labels):
            assert m is not None
            rel = np.linalg.norm(np.clip(patch.pixels, -1, 1) - truth[m, 0])
            rel /= np.linalg.norm(truth[m, 0])
            assert rel < 1e-2
            mae = np.abs(patch.pixels - truth[m, 0]).mean()
            assert mae < 0.02

    def test_collision_mixture_rejection_rate(self):
        # dense random batches force multi-occupied bins; opposite-sign
        # gradient weights either cancel the pair signal or push the mixture
        # out of range / out of bin, same-sign mixtures are genuinely
        # indistinguishable from a single patch. Measured per-bin rejection
        # on this pipeline: 20/62 at these seeds.
        cc, bb, plan = make_pipeline([1], 2, seed=8)
        adapters = craft_adapters(plan, bb, cc, DESK, 0)
        rejected = total = 0
        for seed in range(8):
            batch = synth_batch(32, DESK, seed=700 + seed, kind="uniform")
            stats_mn = content_statistics(batch.images, bb.embed, bb.pos, DESK)
            _, _, cache = forward(batch, bb, adapters, DESK)
            grads = backward_adapters(cache, bb, adapters, DESK)
            report = atk.run_attack(grads, plan, bb.pos, 0, batch.size)
            accepted = {p.bin_index for p in report.valid_patches}
            for lo, hi, q in oracle.recoverable_intervals(plan, 1, 0):
                count = int(((stats_mn[:, 0] > lo) & (stats_mn[:, 0] < hi)).sum())
                if count >= 2:
                    total += 1
                    rejected += 0 if q in accepted else 1
        assert total > 30
        assert rejected / total >= 0.25

    def test_out_of_range_pixels_invalidate(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        patch = report.valid_patches[0]
        bad = atk.RecoveredPatch(
            position=patch.position, bin_index=patch.bin_index, round_idx=0,
            pixels=patch.pixels + 2.5, stat_check=patch.stat_check, valid=False)
        assert not atk.validate(bad, plan)

    def test_out_of_bin_statistic_invalidates(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        patch = report.valid_patches[0]
        lo, hi = atk.bin_bounds(plan, patch.position, 0, patch.bin_index)
        bad = atk.RecoveredPatch(
            position=patch.position, bin_index=patch.bin_index, round_idx=0,
            pixels=patch.pixels, stat_check=lo - 1.0, valid=False)
        assert not atk.validate(bad, plan)


class TestGrouping:
    def test_single_image_single_group(self):
        patches = [atk.RecoveredPatch(1, 0, 0, np.zeros(48), 0.0, True,
                                      fingerprint=np.zeros(4))]
        assert atk.group_patches(patches, "fingerprint", delta=1.0) == [[0]]

    def test_oracle_mode_groups_by_label(self):
        patches = [atk.RecoveredPatch(t, 0, 0, np.zeros(48), 0.0, True)
                   for t in (1, 2, 1, 2)]
        groups = atk.group_patches(patches, "oracle", oracle_labels=[0, 0, 1, 1])
        assert groups == [[0, 1], [2, 3]]

    def test_fingerprint_mode_end_to_end(self):
        cc, bb, plan = make_pipeline([2], 2, seed=9, fingerprint=True)
        adapters = craft_adapters(plan, bb, cc, DESK, 0)
        batch = bin_mid_batch(bb, plan, 2, rng_seed=70)
        m = batch.size
        _, _, cache = forward(batch, bb, adapters, DESK)
        grads = backward_adapters(cache, bb, adapters, DESK)
        report = atk.run_attack(grads, plan, bb.pos, 0, m)
        valid_idx = [i for i, p in enumerate(report.patches) if p.valid]
        groups = atk.group_patches([report.patches[i] for i in valid_idx],
                                   "fingerprint", delta=plan.fingerprint_delta)
        # distinct random images, one recovered patch each -> singleton groups
        assert len(groups) == len(valid_idx)

    def test_fingerprint_joins_same_image(self):
        cc, bb, plan = make_pipeline([1, 2], 2, seed=10, fingerprint=True)
        adapters = craft_adapters(plan, bb, cc, DESK, 0)
        # one image recovered at two positions must land in one group
        rng = Rng(30)
        imgs = rng.uniform(2 * 3 * 8 * 8).reshape(2, 3, 8, 8) * 2 - 1
        batch = Batch(imgs, np.array([0, 1]))
        _, _, cache = forward(batch, bb, adapters, DESK)
        grads = backward_adapters(cache, bb, adapters, DESK)
        report = atk.run_attack(grads, plan, bb.pos, 0, 2)
        stats_mn = content_statistics(batch.images, bb.embed, bb.pos, DESK)
        labels = oracle.match_patches(report, stats_mn)
        valid = report.valid_patches
        by_image = {}
        for p, lab in zip(valid, labels):
            if lab is not None:
                by_image.setdefault(lab, []).append(p)
        multi = {k: v for k, v in by_image.items() if len(v) >= 2}
        if not multi:
            pytest.skip("no image recovered at two positions for this seed")
        patches = [p for ps in multi.values() for p in ps]
        groups = atk.group_patches(patches, "fingerprint",
                                   delta=plan.fingerprint_delta)
        assert len(groups) == len(multi)


class TestCoverageCeiling:
    def test_valid_count_bounded_by_isolated_oracle(self):
        # sparse occupancy (M=8 over 64 thresholds): the attack's valid
        # count tracks the isolated-bin oracle within one patch
        from adapterleak.flsim import (DefenseConfig, FLConfig, SetupArgs,
                                       prepare_attack, run_experiment)

        for seed in (11, 1011, 2011, 3011, 4011):
            setup = prepare_attack(SetupArgs(DESK, CraftConfig(seed=7), seed, 1,
                                             (1,), 8))
            res = run_experiment(setup, FLConfig(users=2, batch_size=8, rounds=1,
                                                 seed=seed),
                                 DefenseConfig())
            stats_mn = oracle.true_statistics(res.victim_batch, res.backbone,
                                              DESK)
            isolated = oracle.isolated_bins(stats_mn, res.plan, 0)
            oracle_count = sum(map(len, isolated.values()))
            valid = len(res.merged.valid_patches)
            assert valid >= oracle_count           # isolated bins always land
            assert valid - oracle_count <= 1       # collisions rarely slip


class TestMerge:
    def test_merge_with_itself_idempotent(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        merged = atk.merge_rounds([report, report], plan)
        assert len(merged.valid_patches) == len(report.valid_patches)
        assert merged.coverage == report.coverage

    def test_disjoint_coverage_adds(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        a = atk.ReconstructionReport(report.valid_patches[:3], plan.n_patches,
                                     report.m_expected, (0,))
        b = atk.ReconstructionReport(report.valid_patches[3:6], plan.n_patches,
                                     report.m_expected, (0,))
        merged = atk.merge_rounds([a, b], plan)
        assert len(merged.valid_patches) == 6

    def test_merge_order_invariant(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        a = atk.ReconstructionReport(report.valid_patches[:4], plan.n_patches,
                                     report.m_expected, (0,))
        b = atk.ReconstructionReport(report.valid_patches[2:8], plan.n_patches,
                                     report.m_expected, (0,))
        ab = atk.merge_rounds([a, b], plan)
        ba = atk.merge_rounds([b, a], plan)
        key = lambda p: (p.position, round(p.stat_check, 6))
        assert sorted(map(key, ab.valid_patches)) == sorted(map(key, ba.valid_patches))

    def test_multi_round_coverage_nondecreasing(self):
        cfg4 = ModelConfig(r=4)
        cc = CraftConfig(seed=12)
        bb, ei = craft_backbone(cc, cfg4)
        pub = synth_batch(256, cfg4, seed=995, kind="smooth")
        stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, cfg4)
        plan = build_attack_plan(stats, cfg4, [1], 3, 4, ei, cc)
        batch = synth_batch(12, cfg4, seed=44, kind="smooth")
        merged = None
        prev = -1.0
        for rho in range(4):
            adapters = craft_adapters(plan, bb, cc, cfg4, rho)
            _, _, cache = forward(batch, bb, adapters, cfg4)
            grads = backward_adapters(cache, bb, adapters, cfg4)
            rep = atk.run_attack(grads, plan, bb.pos, rho, batch.size)
            merged = rep if merged is None else atk.merge_rounds([merged, rep], plan)
            assert merged.coverage >= prev
            prev = merged.coverage
