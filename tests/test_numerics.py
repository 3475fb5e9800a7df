import math

import numpy as np
import pytest

from adapterleak import numerics as nx
from adapterleak.model import _layer_norm_cached


def layer_norm(x, w, b):
    return _layer_norm_cached(x, w, b)[0]


def erf_series(x, terms=60):
    # Taylor series of erf, plenty accurate for |x| <= 3
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def phi_series(x):
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(nx.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_exponential_gap(self):
        out = nx.softmax_rows(np.array([[400.0, 100.0]]))
        assert out[0, 1] < 1e-100
        assert abs(out[0, 0] - 1.0) < 1e-100

    def test_shift_invariance(self):
        rng = nx.Rng(5)
        row = rng.normal(0, 3, 6)
        # bit-exact for shifts that leave the mantissas untouched
        assert np.array_equal(nx.softmax_rows(row[None]),
                              nx.softmax_rows(row[None] * 1.0 + 0.0))
        shifted = nx.softmax_rows(row[None] + 123.25)
        assert np.max(np.abs(shifted - nx.softmax_rows(row[None]))) < 1e-14

    def test_rows_sum_to_one_property(self):
        rng = nx.Rng(11)
        for _ in range(50):
            m = rng.normal(0, 50, 21).reshape(3, 7)
            sums = nx.softmax_rows(m).sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)
            assert np.all(nx.softmax_rows(m) >= 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            nx.softmax_rows(np.array([[0.0, np.nan]]))

    @pytest.mark.parametrize("t", [1, 2, 5, 8, 17])
    def test_column_max_matches_row_reduction(self, t):
        m = nx.Rng(t).normal(0, 20, 4 * 3 * t * t).reshape(4, 3, t, t)
        e = np.exp(m - m.max(axis=-1, keepdims=True))
        assert np.array_equal(nx.softmax_rows(m), e / e.sum(axis=-1, keepdims=True))
        for col in (0, t // 2, t - 1):
            bad = m.copy()
            bad[1, 2, 0, col] = np.nan
            with pytest.raises(ValueError):
                nx.softmax_rows(bad)


class TestLayerNorm:
    def test_two_point(self):
        out = layer_norm(np.array([1.0, -1.0]), np.array([5.0, 5.0]), np.zeros(2))
        assert np.allclose(out, [5.0, -5.0])

    def test_against_direct_formula(self):
        rng = nx.Rng(7)
        x = rng.normal(0, 2, 16)
        w = rng.normal(1, 0.1, 16)
        b = rng.normal(0, 0.5, 16)
        mu = x.mean()
        sd = math.sqrt(((x - mu) ** 2).mean())
        expected = (x - mu) / sd * w + b
        assert np.max(np.abs(layer_norm(x, w, b) - expected)) < 1e-12

    def test_normalization_property(self):
        rng = nx.Rng(9)
        for _ in range(20):
            x = rng.normal(0, 4, 32)
            out = layer_norm(x, np.ones(32), np.zeros(32))
            assert abs(out.mean()) < 1e-12
            assert abs(out.std() - 1.0) < 1e-9


class TestGelu:
    def test_zero(self):
        assert nx.gelu(0.0) == 0.0

    def test_tail_saturation(self):
        assert abs(nx.gelu(1e4) - 1e4) < 1e-8  # relative 1e-12

    def test_minus_one_vs_series(self):
        expected = -1.0 * phi_series(-1.0)
        assert abs(float(nx.gelu(-1.0)) - expected) < 1e-5
        assert abs(expected - (-0.158655)) < 1e-5

    def test_monotone_right_of_minimum(self):
        # x * Phi(x) dips to about -0.17 near x = -0.75 and is nondecreasing
        # to the right of it; the exact form is not globally monotone
        xs = np.linspace(-0.75, 12, 4001)
        ys = nx.gelu(xs)
        assert np.all(np.diff(ys) >= 0.0)
        assert float(nx.gelu(-0.7517915)) == pytest.approx(-0.1700, abs=1e-3)

    def test_saturated_tail_is_identity(self):
        # past 9, Phi(x) is 1.0 and x phi(x) lies below half an ulp of 1.0
        x = np.concatenate([np.linspace(9.0, 40.0, 10_001), np.geomspace(9.0, 1e150, 10_001)])
        assert np.array_equal(nx.gelu(x).view(np.int64), x.view(np.int64))
        assert np.all(nx.gelu_grad(x) == 1.0)
        assert np.isnan(nx.gelu_grad(np.nan))

    def test_grad_matches_fd(self):
        xs = np.linspace(-4, 4, 17)
        h = 1e-6
        fd = (nx.gelu(xs + h) - nx.gelu(xs - h)) / (2 * h)
        assert np.max(np.abs(nx.gelu_grad(xs) - fd)) < 1e-8


class TestRelu:
    @pytest.mark.parametrize("x,expected", [(-3.0, 0.0), (0.0, 0.0), (2.5, 2.5)])
    def test_values(self, x, expected):
        assert nx.relu(x) == expected


class TestInverseNormalCdf:
    def test_median(self):
        assert nx.inverse_normal_cdf(0.5, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_one_sigma_vs_bisection_oracle(self):
        # bisection of the series-based CDF pinned this target value
        p = 0.8413447
        lo, hi = -8.0, 8.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if phi_series(mid) < p:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert abs(nx.inverse_normal_cdf(p) - oracle) < 1e-9
        assert abs(nx.inverse_normal_cdf(p) - 1.0) < 1e-4

    def test_affine_law(self):
        base = nx.inverse_normal_cdf(0.25)
        assert nx.inverse_normal_cdf(0.25, 2.0, 3.0) == pytest.approx(
            2.0 + 3.0 * base, abs=1e-12)
        assert abs(nx.inverse_normal_cdf(0.25, 2.0, 3.0) - (-0.02347)) < 1e-4

    def test_accuracy_against_cdf(self):
        ps = np.concatenate([[1e-12, 1 - 1e-12],
                             np.linspace(1e-6, 1 - 1e-6, 999)])
        xs = nx.inverse_normal_cdf(ps)
        assert np.max(np.abs(nx.normal_cdf(xs) - ps) /
                      np.maximum(nx.normal_pdf(xs), 1e-300) * 1.0) < 1e-9 or \
            np.max(np.abs(xs - nx.inverse_normal_cdf(nx.normal_cdf(xs)))) < 1e-9

    def test_strictly_increasing_grid(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 10_000)
        xs = nx.inverse_normal_cdf(ps)
        assert np.all(np.diff(xs) > 0.0)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                nx.inverse_normal_cdf(bad)
        with pytest.raises(ValueError):
            nx.inverse_normal_cdf(0.5, 0.0, -1.0)


class TestSampling:
    def test_empty(self):
        assert nx.Rng(0).normal(0.0, 1.0, 0).size == 0
        assert nx.Rng(0).laplace(0.0, 1.0, 0).size == 0

    def test_gaussian_moments(self):
        draws = nx.Rng(42).normal(0.0, 10.0, 100_000)
        assert abs(draws.mean()) < 0.2
        assert abs(draws.std() - 10.0) < 0.2

    def test_laplacian_variance(self):
        b = 3.0
        draws = nx.Rng(43).laplace(0.0, b, 100_000)
        assert abs(draws.var() / (2 * b * b) - 1.0) < 0.05


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = nx.Rng(123)
        b = nx.Rng(123)
        assert np.array_equal(a.uniform(1000), b.uniform(1000))
        assert np.array_equal(a.normal(0, 1, 100), b.normal(0, 1, 100))

    def test_stream_continuation_matches_one_shot(self):
        a = nx.Rng(7)
        first = np.concatenate([a.uniform(10), a.uniform(10)])
        assert np.array_equal(first, nx.Rng(7).uniform(20))

    def test_spawn_independent(self):
        root = nx.Rng(1)
        c1, c2 = root.spawn(1), root.spawn(2)
        assert not np.array_equal(c1.uniform(50), c2.uniform(50))
        assert np.array_equal(nx.Rng(1).spawn(1).uniform(50), c1.seed * 0 + nx.Rng(1).spawn(1).uniform(50))

    def test_known_splitmix_vector(self):
        # splitmix64 with seed 0: first output is mix(golden ratio constant)
        r = nx.Rng(0)
        raw = r._raw(1)[0]
        assert raw == np.uint64(0xE220A8397B1DCDAF)

    def test_integers_range(self):
        draws = nx.Rng(5).integers(2, 9, 1000)
        assert draws.min() >= 2 and draws.max() <= 8


class TestGeluSinglePass:
    def test_phi_is_exactly_one_past_nine(self):
        x = np.concatenate([np.linspace(9.0, 1e3, 100_001), np.geomspace(9.0, 1e3, 10_001)])
        assert np.all(nx.normal_cdf(x) == 1.0)

    def test_single_pass_is_bit_identical_to_gelu(self):
        x = np.concatenate([np.linspace(-60.0, 60.0, 120_001), [8.3, 9.0, 1e3, -1e3, 0.0, -0.0]])
        y = x.copy()
        y *= nx.normal_cdf(y)
        assert np.array_equal(y.view(np.int64), nx.gelu(x).view(np.int64))
