"""Deterministic double-precision primitives.

Everything here is a pure function of its inputs (plus the explicit Rng
state), runs in float64, and produces bit-identical results for identical
inputs on a given platform.
"""

from __future__ import annotations

import math

import numpy as np

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Phi(x) rounds to exactly 1.0 in float64 from here on; x * Phi(x) is then x.
_PHI_SATURATION = 9.0


def as_f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction; rejects NaN input."""
    # The row max is taken column by column: a max is exact, so it equals
    # m.max(-1) bit for bit, and T - 1 elementwise passes beat numpy's
    # reduction over a short last axis. The sum stays numpy's row sum, which
    # rounds differently from a column-by-column sum from T = 8 up.
    row_max = m[..., :1].copy()
    for i in range(1, m.shape[-1]):
        np.maximum(row_max, m[..., i : i + 1], out=row_max)
    if np.isnan(row_max).any():  # np.maximum propagates a NaN anywhere in the row
        raise ValueError("softmax_rows: NaN in input")
    e = np.subtract(m, row_max)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def normal_cdf(x) -> np.ndarray:
    # imported on first use: it costs as much start-up as numpy (README)
    from scipy.special import ndtr

    return ndtr(x)


def normal_pdf(x) -> np.ndarray:
    return INV_SQRT_2PI * np.exp(-0.5 * x * x)


def gelu(x) -> np.ndarray:
    """Exact-Phi GELU: x * Phi(x), exactly x past ``_PHI_SATURATION``."""
    return x * normal_cdf(x)


def gelu_grad(x) -> np.ndarray:
    """d/dx of gelu: Phi(x) + x phi(x), exactly 1.0 past ``_PHI_SATURATION``."""
    return normal_cdf(x) + x * normal_pdf(x)


def relu(x) -> np.ndarray:
    return np.maximum(x, 0.0)


# Coefficients of Acklam's rational approximation to the standard normal
# quantile (abs error ~1e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inverse_normal_cdf(p, mu: float = 0.0, sigma: float = 1.0):
    """Quantile of N(mu, sigma^2); rational approximation plus one Halley step.

    Accepts scalars or arrays with entries strictly inside (0, 1).
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    p_arr = as_f64(p)
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr)
    if np.any(~((p_arr > 0.0) & (p_arr < 1.0))):
        raise ValueError("p must lie strictly inside (0, 1)")

    x = np.empty_like(p_arr)
    lo = p_arr < _P_LOW
    hi = p_arr > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if lo.any():
        q = np.sqrt(-2.0 * np.log(p_arr[lo]))
        x[lo] = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - p_arr[hi]))
        x[hi] = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                  / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if mid.any():
        q = p_arr[mid] - 0.5
        r = q * q
        x[mid] = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
                  / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))

    # One Halley refinement against the exact CDF.
    err = normal_cdf(x) - p_arr
    u = err / np.maximum(normal_pdf(x), np.finfo(np.float64).tiny)
    x = x - u / (1.0 + 0.5 * x * u)

    out = mu + sigma * x
    return float(out[0]) if scalar else out


_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(indices: np.ndarray, seed: np.uint64) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = seed + (indices + np.uint64(1)) * _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_M1
        z = (z ^ (z >> np.uint64(27))) * _SM64_M2
        return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 stream.

    state i -> mix(seed + (i+1) * golden); uniform doubles take the top 53
    bits. The recurrence is fixed, so identical seeds give identical streams
    on every platform. Gaussian and Laplacian draws go through the exact
    inverse CDFs, keeping them reproducible too.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def spawn(self, key: int) -> "Rng":
        """Independent child stream derived from (seed, key)."""
        mixed = _splitmix64(np.array([key], dtype=np.uint64), self.seed ^ np.uint64(0xD6E8FEB86659FD93))
        return Rng(int(mixed[0]))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        return _splitmix64(idx, self.seed)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def uniform_open(self, n: int) -> np.ndarray:
        """n doubles in (0, 1), safe for inverse-CDF transforms."""
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)

    def normal(self, mu: float, sigma: float, n: int) -> np.ndarray:
        return inverse_normal_cdf(self.uniform_open(n), mu, sigma) if n else np.empty(0)

    def laplace(self, mu: float, b: float, n: int) -> np.ndarray:
        if not n:
            return np.empty(0)
        u = self.uniform_open(n) - 0.5
        return mu - b * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n ints uniform over [low, high); rejection-free modulo (bias < 2^-40 here)."""
        span = np.uint64(high - low)
        return (low + (self._raw(n) % span).astype(np.int64)).astype(np.int64)

