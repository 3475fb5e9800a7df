import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adapterleak import metrics as mx
from adapterleak import oracle
from adapterleak.attack import ReconstructionReport, RecoveredPatch
from adapterleak.errors import ShapeError
from adapterleak.numerics import Rng
from helpers import ssim


def _placed(recovered, m, n, d):
    """(placed, found) of an {(image, position): pixels} map over (m, n, d) slots."""
    placed, found = np.zeros((m, n, d)), np.zeros((m, n), dtype=bool)
    for (i, t), pix in recovered.items():
        placed[i, t - 1], found[i, t - 1] = pix, True
    return placed, found


def _score_map(recovered, truth, p, c):
    """``score_reconstruction`` of an {(image, position): pixels} map."""
    return mx.score_reconstruction(*_placed(recovered, *truth.shape), truth, p, c)


def _score(recovered, truth):
    """Score (C=1, P=2) patches; ``recovered`` and ``truth`` are (M, N, 4)."""
    rec = {(i, t + 1): recovered[i, t] for i in range(truth.shape[0])
           for t in range(truth.shape[1])}
    return _score_map(rec, truth, 2, 1)


def _per_patch_mse(recovered, truth):
    """Each patch's MSE, as the mean_mse of scoring that patch alone."""
    return [_score(recovered[i:i + 1, t:t + 1], truth[i:i + 1, t:t + 1]).mean_mse
            for i in range(truth.shape[0]) for t in range(truth.shape[1])]


class TestMsePsnr:
    def test_identical_zero_mse_infinite_psnr(self):
        a = (Rng(1).uniform(48) * 2 - 1).reshape(3, 4, 4)
        assert _per_patch_mse(a, a) == [0.0] * 12
        assert _score(a, a).mean_mse == 0.0

    def test_opposite_extremes(self):
        a = np.ones((1, 2, 4))
        assert _per_patch_mse(-a, a) == [4.0, 4.0]
        assert _score(-a, a).mean_mse == 4.0

    def test_against_direct_formula(self):
        rng = Rng(2)
        a, b = (rng.uniform(60) * 2 - 1).reshape(3, 5, 4), (rng.uniform(60) * 2 - 1).reshape(3, 5, 4)
        expected = ((a - b) ** 2).mean(axis=-1).ravel()
        assert np.max(np.abs(np.array(_per_patch_mse(a, b)) - expected)) < 1e-12
        assert _score(a, b).mean_mse == pytest.approx(expected.mean(), abs=1e-12)

    def test_symmetry_nonnegativity(self):
        rng = Rng(3)
        a, b = (rng.uniform(32) * 2 - 1).reshape(2, 4, 4), (rng.uniform(32) * 2 - 1).reshape(2, 4, 4)
        assert _per_patch_mse(a, b) == _per_patch_mse(b, a)
        assert _score(a, b).mean_mse == _score(b, a).mean_mse
        assert min(_per_patch_mse(a, b)) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mx.score_reconstruction(np.ones((1, 1, 3)), np.ones((1, 1), dtype=bool),
                                    np.ones((1, 1, 4)), 2, 1)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mx.score_reconstruction(np.ones((1, 1, 4)), np.ones((1, 2), dtype=bool),
                                    np.ones((1, 1, 4)), 2, 1)


class TestSsim:
    def test_identical_is_one(self):
        a = Rng(4).uniform(3 * 8 * 8).reshape(3, 8, 8) * 2 - 1
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_negation_is_negative(self):
        rng = Rng(5)
        a = rng.uniform(64).reshape(8, 8)
        a -= a.mean()
        # oracle by the direct window formula: mu_b = -mu_a = 0, cov = -var
        assert ssim(a, -a) < 0.0

    def test_constant_offset_second_order(self):
        for delta in (1e-3, 1e-2):
            a = np.full((8, 8), 0.25)
            val = ssim(a, a + delta)
            c1 = (0.01 * 2.0) ** 2
            mu2 = 0.25 * (0.25 + delta)
            expected = (2 * mu2 + c1) / (0.25 ** 2 + (0.25 + delta) ** 2 + c1)
            assert val == pytest.approx(expected, abs=1e-12)
            assert 1.0 - val < 3.0 * delta ** 2 / c1

    def test_window_shrinks_for_small_patches(self):
        a = Rng(6).uniform(3 * 4 * 4).reshape(3, 4, 4)
        assert ssim(a, a, window=8) == pytest.approx(1.0)

    def test_range(self):
        rng = Rng(7)
        for _ in range(10):
            a = rng.uniform(64).reshape(8, 8) * 2 - 1
            b = rng.uniform(64).reshape(8, 8) * 2 - 1
            assert -1.0 <= ssim(a, b) <= 1.0


class TestRecoveryRate:
    def test_all_recovered_exactly(self):
        truth = Rng(8).uniform(2 * 4 * 48).reshape(2, 4, 48) * 2 - 1
        recovered = {(i, t + 1): truth[i, t] for i in range(2) for t in range(4)}
        assert _score_map(recovered, truth, 4, 3).recovery_rate == 1.0

    def test_none_recovered(self):
        truth = Rng(9).uniform(2 * 4 * 48).reshape(2, 4, 48)
        assert _score_map({}, truth, 4, 3).recovery_rate == 0.0

    def test_threshold_monotone(self, monkeypatch):
        rng = Rng(10)
        truth = rng.uniform(2 * 4 * 48).reshape(2, 4, 48) * 2 - 1
        recovered = {(i, t + 1): np.clip(truth[i, t] + rng.uniform(48) * 0.3, -1, 1)
                     for i in range(2) for t in range(4)}
        rates = []
        for th in (0.001, 0.01, 0.05, 1.0):
            monkeypatch.setattr(mx, "RECOVERY_MSE", th)
            rates.append(_score_map(recovered, truth, 4, 3).recovery_rate)
        assert all(r1 <= r2 for r1, r2 in zip(rates, rates[1:]))

    @pytest.mark.parametrize("mse, rate", [(0.07, 0.0), (0.03, 1.0)])
    def test_threshold_is_a_twentieth(self, mse, rate):
        truth = np.zeros((1, 1, 4))
        report = _score(np.full((1, 1, 4), math.sqrt(mse)), truth)
        assert report.mean_mse == pytest.approx(mse, rel=1e-12)
        assert report.recovery_rate == rate

    def test_score_report_gray_fill(self):
        truth = np.full((1, 4, 48), 0.5)
        report = _score_map({(0, 1): truth[0, 0]}, truth, 4, 3)
        assert report.recovery_rate == 0.25
        # unrecovered slots compare mid-gray against 0.5
        assert report.mean_mse == pytest.approx((3 * 0.25) / 4, abs=1e-12)


# Reference scoring: the per-window loop the vectorized metrics replaced,
# kept verbatim so every field of the report stays bit-identical to it.
def _ref_windows(img, win):
    h, w = img.shape
    for y in range(h - win + 1):
        for x in range(w - win + 1):
            yield img[y : y + win, x : x + win]


def _ref_ssim(a, b, window=8, data_range=2.0):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = min(window, a.shape[-2], a.shape[-1])
    vals = []
    for ch in range(a.shape[0]):
        for wa, wb in zip(_ref_windows(a[ch], win), _ref_windows(b[ch], win)):
            mu_a, mu_b = wa.mean(), wb.mean()
            var_a, var_b = wa.var(), wb.var()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def _ref_score(recovered, truth, p, c, threshold_mse=0.05):
    m, n, _ = truth.shape
    mses, ssims, hits = [], [], 0
    for i in range(m):
        for t in range(1, n + 1):
            got = recovered.get((i, t))
            ref = truth[i, t - 1]
            cand = np.full_like(ref, mx.GRAY) if got is None else np.clip(got, -1, 1)
            mse = float(np.mean((cand - ref) ** 2))
            mses.append(mse)
            ssims.append(_ref_ssim(cand.reshape(c, p, p), ref.reshape(c, p, p)))
            if got is not None and mse < threshold_mse:
                hits += 1
    return mx.ScoreReport(
        mean_mse=float(np.mean(mses)),
        mean_ssim=float(np.mean(ssims)),
        recovery_rate=hits / (m * n),
    )


KINDS = ["gray", "exact", "noisy", "clipped", "mixed"]


def _recovery(kind, truth, gen):
    """Recovered-patch maps of one kind for a (m, n, d) truth array."""
    m, n, d = truth.shape
    keys = [(i, t) for i in range(m) for t in range(1, n + 1)]
    if kind == "gray":
        return {}
    if kind == "exact":
        return {(i, t): truth[i, t - 1].copy() for i, t in keys}
    if kind == "noisy":
        return {(i, t): truth[i, t - 1] + 0.1 * gen.standard_normal(d)
                for i, t in keys}
    if kind == "clipped":
        return {(i, t): 3.0 * gen.standard_normal(d) for i, t in keys}
    # mixed: a random subset, each slot exact, noisy or out of range
    out = {}
    for i, t in keys:
        pick = gen.integers(4)
        if pick == 1:
            out[(i, t)] = truth[i, t - 1].copy()
        elif pick == 2:
            out[(i, t)] = truth[i, t - 1] + 0.02 * gen.standard_normal(d)
        elif pick == 3:
            out[(i, t)] = 2.5 * gen.uniform(-1, 1, d)
    return out


def _assert_reports_identical(got, want):
    for f in dataclasses.fields(mx.ScoreReport):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


class TestScoringPinned:
    """Bit-equality with the per-window reference loop above."""

    @pytest.mark.parametrize("p", [2, 3, 4, 8, 12, 16])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_score_reconstruction_matches_reference(self, p, c, kind, monkeypatch):
        gen = np.random.default_rng([p, c, KINDS.index(kind)])
        for _ in range(2):
            m, n = int(gen.integers(1, 4)), int(gen.integers(1, 5))
            truth = gen.uniform(-1, 1, (m, n, c * p * p))
            recovered = _recovery(kind, truth, gen)
            for th in (0.05, 0.005):
                monkeypatch.setattr(mx, "RECOVERY_MSE", th)
                _assert_reports_identical(
                    _score_map(recovered, truth, p, c),
                    _ref_score(recovered, truth, p, c, threshold_mse=th))

    @pytest.mark.parametrize("shape", [(8, 8), (3, 4, 4), (1, 12, 12), (3, 16, 16),
                                       (2, 9, 13), (3, 13, 9), (5, 20), (2, 1, 7)])
    @pytest.mark.parametrize("window", [3, 8, 16])
    def test_ssim_matches_reference(self, shape, window):
        gen = np.random.default_rng([len(shape), *shape, window])
        a = gen.uniform(-1, 1, shape)
        pairs = [(a, gen.uniform(-1, 1, shape)),
                 (a, a + 0.05 * gen.standard_normal(shape)),
                 (a, a.copy()),
                 (np.full(shape, 0.25), np.full(shape, 0.3)),
                 (a, -a)]
        for x, y in pairs:
            assert repr(ssim(x, y, window=window)) == repr(_ref_ssim(x, y, window=window))


# Reference placement: the (image, position) -> pixels dict that
# ``oracle.place_patches`` replaced, kept verbatim.
def _ref_pixel_map(report, stats_mn):
    labels = oracle.match_patches(report, stats_mn)
    out = {}
    for patch, m in zip(report.valid_patches, labels):
        if m is None:
            continue
        key = (m, patch.position)
        if key not in out:
            out[key] = patch.pixels
    return out


@st.composite
def _placement_cases(draw):
    """(report, stats_mn, truth, p, c) with a slot two valid patches match,
    an unmatched valid patch and invalid patches among random ones."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p, c = draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([1, 3]))
    d = c * p * p
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    truth = gen.uniform(-1, 1, (m, n, d))
    # statistics 0.1 apart: a value within MATCH_STAT_TOL of one names that image
    stats_mn = gen.permutation(m * n).reshape(m, n) * 0.1

    def patch(i, t, matched, valid):
        stat = (stats_mn[i, t - 1] + gen.uniform(-0.9, 0.9) * oracle.MATCH_STAT_TOL
                if matched else stats_mn[:, t - 1].max() + 0.05)
        pixels = draw(st.sampled_from([
            truth[i, t - 1].copy(), truth[i, t - 1] + 0.05 * gen.standard_normal(d),
            2.5 * gen.uniform(-1, 1, d)]))
        return RecoveredPatch(t, int(gen.integers(8)), 0, pixels, float(stat), valid)

    slot = st.tuples(st.integers(0, m - 1), st.integers(1, n))
    i, t = draw(slot)
    patches = [patch(i, t, True, True), patch(i, t, True, True),
               patch(*draw(slot), False, True), patch(*draw(slot), True, False)]
    patches += [patch(*draw(slot), draw(st.booleans()), draw(st.booleans()))
                for _ in range(draw(st.integers(0, 6)))]
    patches = draw(st.permutations(patches))
    return ReconstructionReport(patches, n, m), stats_mn, truth, p, c


class TestPlacement:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(case=_placement_cases())
    def test_place_then_score_matches_dict_path(self, case):
        report, stats_mn, truth, p, c = case
        placed, found = oracle.place_patches(report, stats_mn, truth.shape[-1])
        ref = _ref_pixel_map(report, stats_mn)
        assert sorted(zip(*np.nonzero(found))) == sorted((i, t - 1) for i, t in ref)
        for (i, t), pix in ref.items():
            assert placed[i, t - 1].tobytes() == pix.tobytes()
        assert not placed[~found].any()
        assert repr(mx.score_reconstruction(placed, found, truth, p, c)) == \
            repr(_ref_score(ref, truth, p, c))


class TestWriters:
    def test_csv_deterministic(self, tmp_path):
        rows = [["a", 1, 0.5, math.inf, -0.25]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        mx.write_csv(p1, ["n", "x", "r", "p", "s"], rows)
        mx.write_csv(p2, ["n", "x", "r", "p", "s"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert "inf" in p1.read_text()

    def test_json_sorted_keys(self, tmp_path):
        p = tmp_path / "s.json"
        mx.write_json(p, {"b": 1, "a": [1.5, None]})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
