import numpy as np
import pytest

from adapterleak import attack as atk
from adapterleak import oracle
from adapterleak.craft import (AttackPlan, CraftConfig, build_attack_plan,
                               craft_adapters, craft_backbone, embedding_layout)
from adapterleak.dataio import Batch, synth_batch
from adapterleak.errors import EmptyBinError
from adapterleak.grad import backward_adapters
from adapterleak.model import ModelConfig, forward, unpatchify
from adapterleak.numerics import Rng
from adapterleak.stats import content_statistics, estimate_patch_stats

DESK = ModelConfig()


def make_pipeline(positions, s_t, seed=7, rounds=1):
    cc = CraftConfig(seed=seed)
    bb = craft_backbone(cc, DESK)
    pub = synth_batch(256, DESK, seed=999, kind="uniform")
    stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, DESK)
    plan = build_attack_plan(stats, DESK, positions, s_t, rounds)
    return cc, bb, plan


def bin_mid_batch(bb, plan, t, rng_seed=5, extra_positions_random=True):
    """One patch per recoverable interval of position t, placed mid-bin."""
    grid = plan.thresholds[t][0]
    mids = []
    for b in plan.bins(t):
        lo, hi = plan.bounds(t, 0, b.q)
        mids.append(lo + 0.6 * (grid[1] - grid[0]) if not np.isfinite(hi)
                    else 0.5 * (lo + hi))
    epc = bb.pos[t, embedding_layout(bb.embed, DESK.N).content_rows]
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


def literal_plan():
    """Positions 1 and 2 on one grid of bins [0, 1), [1, 2), [2, 3), [3, inf);
    the smallest statistic spread is 2.0."""
    grid = np.array([[0.0, 1.0, 2.0, 3.0]])
    return AttackPlan(assignments=[], thresholds={1: grid, 2: grid.copy()}, rounds=1,
                      r=4, stats_sigma=np.array([0.0, 2.0, 4.0]))


def in_bin(position, stat, peak=0.0):
    """A valid-flagged patch in bin [1, 2) whose largest |pixel| is |peak|."""
    pixels = np.zeros(48)
    pixels[7] = peak
    return atk.RecoveredPatch(position=position, bin_index=1, round_idx=0,
                              pixels=pixels, stat_check=stat, valid=True)


@pytest.fixture(scope="module")
def isolated_run():
    cc, bb, plan = make_pipeline([1], 2)
    adapters = craft_adapters(plan, bb, cc, DESK)[0]
    batch = bin_mid_batch(bb, plan, 1)
    _, _, cache = forward(batch, bb, adapters, DESK)
    grads = backward_adapters(cache, bb, adapters, DESK)
    report = atk.run_attack(grads, plan, bb, 0, batch.size)
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
        _, bb, *_ = isolated_run
        e_pinv = embedding_layout(bb.embed, DESK.N).e_pinv
        x = atk.recover_patch(bb.pos[1].copy(), e_pinv, bb.pos[1])
        assert np.max(np.abs(x)) < 1e-12

    def test_exact_embedding_exact_pixels(self, isolated_run):
        _, bb, *_ = isolated_run
        rng = Rng(6)
        x = rng.uniform(48) * 2 - 1
        y = bb.embed @ x + bb.pos[2]
        back = atk.recover_patch(y, embedding_layout(bb.embed, DESK.N).e_pinv, bb.pos[2])
        assert np.max(np.abs(back - x)) < 1e-12


class TestDetect:
    def test_all_zero_gradients_empty(self, isolated_run):
        _, _, plan, batch, grads, _ = isolated_run
        zero = grads.copy()
        zero.w_down[:] = 0.0
        zero.b_down[:] = 0.0
        assert atk.detect_active_bins(zero, plan) == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_bias_gradient_empty(self, isolated_run, bad):
        _, _, plan, _, grads, _ = isolated_run
        broken = grads.copy()
        broken.b_down[plan.bins(1)[0].adapter, 0] = bad
        assert atk.detect_active_bins(broken, plan) == []

    def test_every_recoverable_bin_flagged(self, isolated_run):
        _, _, plan, batch, grads, _ = isolated_run
        hits = atk.detect_active_bins(grads, plan)
        assert hits == [(1, b) for b in plan.bins(1)]


class TestEndToEnd:
    def test_isolated_bins_recovered_exactly(self, isolated_run):
        _, bb, plan, batch, _, report = isolated_run
        stats_mn = content_statistics(batch.images, bb.embed, bb.pos, DESK)
        truth = oracle.ground_truth_patches(batch, DESK)
        labels = oracle.match_patches(report, stats_mn)
        n_intervals = len(plan.bins(1))
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
        adapters = craft_adapters(plan, bb, cc, DESK)[0]
        rejected = total = 0
        for seed in range(8):
            batch = synth_batch(32, DESK, seed=700 + seed, kind="uniform")
            stats_mn = content_statistics(batch.images, bb.embed, bb.pos, DESK)
            _, _, cache = forward(batch, bb, adapters, DESK)
            grads = backward_adapters(cache, bb, adapters, DESK)
            report = atk.run_attack(grads, plan, bb, 0, batch.size)
            accepted = {p.bin_index for p in report.valid_patches}
            for b in plan.bins(1):
                lo, hi = plan.bounds(1, 0, b.q)
                count = int(((stats_mn[:, 0] > lo) & (stats_mn[:, 0] < hi)).sum())
                if count >= 2:
                    total += 1
                    rejected += 0 if b.q in accepted else 1
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
        lo, hi = plan.bounds(patch.position, 0, patch.bin_index)
        bad = atk.RecoveredPatch(
            position=patch.position, bin_index=patch.bin_index, round_idx=0,
            pixels=patch.pixels, stat_check=lo - 1.0, valid=False)
        assert not atk.validate(bad, plan)


class TestValidateThresholds:
    @pytest.mark.parametrize("peak, valid", [(1.05, True), (-1.05, True),
                                             (1.15, False), (-1.15, False)])
    def test_pixel_slack_is_a_tenth(self, peak, valid):
        assert atk.validate(in_bin(1, 1.5, peak), literal_plan()) is valid


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
        a = atk.ReconstructionReport(report.valid_patches[:3], report.n_positions,
                                     report.m_expected)
        b = atk.ReconstructionReport(report.valid_patches[3:6], report.n_positions,
                                     report.m_expected)
        merged = atk.merge_rounds([a, b], plan)
        assert len(merged.valid_patches) == 6

    def test_merge_order_invariant(self, isolated_run):
        _, _, plan, *_ , report = isolated_run
        a = atk.ReconstructionReport(report.valid_patches[:4], report.n_positions,
                                     report.m_expected)
        b = atk.ReconstructionReport(report.valid_patches[2:8], report.n_positions,
                                     report.m_expected)
        ab = atk.merge_rounds([a, b], plan)
        ba = atk.merge_rounds([b, a], plan)
        key = lambda p: (p.position, round(p.stat_check, 6))
        assert sorted(map(key, ab.valid_patches)) == sorted(map(key, ba.valid_patches))

    @pytest.mark.parametrize("gap, kept", [(2e-3, 2), (2e-5, 1)])
    def test_duplicates_are_within_a_ten_thousandth_of_the_spread(self, gap, kept):
        # the tolerance is 1e-4 of the smallest positive spread, 2.0
        plan = literal_plan()
        reports = [atk.ReconstructionReport([p], 4, 1)
                   for p in (in_bin(1, 1.5), in_bin(1, 1.5 + gap))]
        assert len(atk.merge_rounds(reports, plan).valid_patches) == kept

    def test_equal_statistics_at_two_positions_both_kept(self):
        reports = [atk.ReconstructionReport([in_bin(t, 1.5)], 4, 1) for t in (1, 2)]
        merged = atk.merge_rounds(reports, literal_plan())
        assert [p.position for p in merged.valid_patches] == [1, 2]

    def test_multi_round_coverage_nondecreasing(self):
        cfg4 = ModelConfig(r=4)
        cc = CraftConfig(seed=12)
        bb = craft_backbone(cc, cfg4)
        pub = synth_batch(256, cfg4, seed=995, kind="smooth")
        stats = estimate_patch_stats(pub.images, bb.embed, bb.pos, cfg4)
        plan = build_attack_plan(stats, cfg4, [1], 3, 4)
        batch = synth_batch(12, cfg4, seed=44, kind="smooth")
        merged = None
        prev = -1.0
        for rho, adapters in enumerate(craft_adapters(plan, bb, cc, cfg4)):
            _, _, cache = forward(batch, bb, adapters, cfg4)
            grads = backward_adapters(cache, bb, adapters, cfg4)
            rep = atk.run_attack(grads, plan, bb, rho, batch.size)
            merged = rep if merged is None else atk.merge_rounds([merged, rep], plan)
            assert merged.coverage >= prev
            prev = merged.coverage
