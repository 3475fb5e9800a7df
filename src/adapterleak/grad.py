"""Hand-written reverse pass for adapter parameters.

The backbone is frozen, so only adapter gradients are materialized, but
activation gradients are propagated through every frozen layer (LayerNorm,
softmax attention, GELU MLP, residuals) to reach the adapters below. It
ends at adapter 0, below which nothing reads the token gradient, and skips
the all-ones GELU derivative of MLPs the forward marked not ``live``; a
crafted one is then the forward's width-D copy in reverse (``model``).
Attention reads the forward's head-first cache with stacked matmuls.
A crafted encoder's products are column copies when the token gradient is
finite, as in the forward (``model`` gives the rule); its attention sums
each head's V and Q/K parts straight into the head's columns. Every other
product is one GEMM over all tokens, per head for the stacked Q, K and V
weights, as is the adapter's D-wide ``w_down`` product. On OpenBLAS these
keep the bits of the per-head, per-image products on the checked shapes
(``tests/test_flsim.py`` pins them).

``finite_diff_check`` is the independent oracle: one pass of central
differences of the batch loss with respect to every adapter parameter, at
the fixed step ``FD_STEP``. It passes below a relative error of
``FD_TOLERANCE``, whose denominator is floored at ``FD_FLOOR``.
Four things keep the full desk-scale sweep inside its time budget: the
forward prefix up to the perturbed adapter is cached once; a parameter
whose +-h step changes no bit of its adapter's output (a dead unit's
``w_down``, ``b_down`` and ``w_up`` entries) gets its exact central
difference, 0, without a suffix evaluation; the other perturbation
variants are evaluated in stacked batches through a fused suffix path;
and stacks are distributed over the caller's ``workers`` threads. The CLI
reads that count once, with ``thread_count`` (one per core, capped by
``PEFTLEAK_THREADS``), as ``gradcheck`` starts.

The fused suffix runs on the model's kernels: ``model.layer_normalize``,
``numerics.softmax_rows`` and ``model.adapter_forward``. What it keeps of
its own are folds of the frozen backbone, built afresh for every call so
the oracle always evaluates the backbone as it is now: each LayerNorm's
affine folded into the projections that read it (``_MsaPlan``,
``_MlpPlan``, ``_HeadPlan``), and the MLP units certified GELU-saturated
collapsed into one D x D product (``_MlpPlan``). Both round differently
from the forward's literal order, so the forward, whose output bytes are
pinned, cannot take them over: a crafted backbone's saturated MLP computes
(z + gamma) - gamma with gamma = 1e4, which float64 does not round back
to the collapsed product's z. The suffix projects every head's
queries and keys in one stacked matmul and runs one logits matmul, one
softmax and one attention x V matmul for all heads.

``parallel_map`` runs that pool of stacks, the package's only thread pool;
everything else runs on the calling thread. While the pool runs,
BLAS is capped at one thread (``blas_single_thread``), so pool threads and
BLAS threads never share the cores; the previous BLAS thread count comes
back when the pool is done. The cap goes through threadpoolctl when it is
installed and otherwise through numpy's bundled OpenBLAS. When neither can
cap BLAS, the map runs on one thread and says so on stderr.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, ShapeError
from .model import (AdapterSet, ForwardCache, FrozenBackbone, ModelConfig, _dot,
                    adapter_forward, cross_entropy, forward, layer_normalize)
from .numerics import _PHI_SATURATION, gelu_grad, normal_cdf, relu, softmax_rows


def thread_count() -> int:
    """Worker threads per pool: the usable cores, capped by ``PEFTLEAK_THREADS``."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0)) or 1
    else:
        cores = os.cpu_count() or 1
    env = os.environ.get("PEFTLEAK_THREADS")
    if not env:
        return cores
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"PEFTLEAK_THREADS must be an integer >= 1, got {env!r}")
    return min(cap, cores)


@lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def blas_single_thread():
    """Cap BLAS at one thread inside the block; restore the old count on exit.

    Yields the path that capped it, ``"threadpoolctl"`` or ``"openblas"``,
    or None when neither is available and BLAS runs uncapped. The count is
    process-wide, so blocks must nest, not overlap from several threads.

    Without threadpoolctl only numpy's OpenBLAS is capped, not the one
    scipy ships (``scipy.libs/libscipy_openblas-*.so``): a 960x96x96
    ``scipy.linalg.blas.dgemm`` inside the cap ran at 1.8-1.9 CPU seconds
    per wall second on 2 cores, numpy's at 1.1. So the package imports
    nothing from scipy but ``scipy.special``, which calls no BLAS, and
    that only on first use of Phi (``tests/test_grad.py`` checks this).
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        threadpool_limits = None
    if threadpool_limits is not None:
        with threadpool_limits(limits=1, user_api="blas"):
            yield "threadpoolctl"
        return
    calls = _openblas_thread_calls()
    if calls is None:
        yield None
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield "openblas"
    finally:
        set_(before)


def parallel_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]`` on up to ``workers`` threads, BLAS capped."""
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1:
        with blas_single_thread() as path:
            if path is not None:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(fn, items))
        print(f"warning: BLAS thread count cannot be capped; running on one "
              f"thread instead of {workers}", file=sys.stderr)
    return [fn(x) for x in items]


def _ln_backward(d_out: np.ndarray, ln_cache: dict) -> np.ndarray:
    """Backprop through y = xhat * w + b with population-variance xhat."""
    g = d_out * ln_cache["w"]
    xhat = ln_cache["xhat"]
    mean_g = g.mean(axis=-1, keepdims=True)
    mean_gx = (g * xhat).mean(axis=-1, keepdims=True)
    return ln_cache["inv_sd"] * (g - mean_g - xhat * mean_gx)


def _msa_backward(d_out: np.ndarray, core_cache: dict, enc, d_h: int) -> np.ndarray:
    q, k, v, attn = (core_cache[n] for n in ("q", "k", "v", "attn"))
    L = attn.shape[0]
    crafted = enc.crafted_attention() and bool(np.isfinite(d_out).all())
    d_concat = d_out + 0.0 if crafted else _dot(d_out, enc.w_msa)
    d_heads = np.moveaxis(d_concat.reshape(*d_out.shape[:-1], L, d_h), -2, 0)
    d_attn = d_heads @ np.swapaxes(v, -1, -2)
    d_v = np.swapaxes(attn, -1, -2) @ d_heads
    # softmax rows: dS = A * (dA - sum(dA * A))
    d_logits = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(d_h)
    d_q = d_logits @ k * scale
    d_k = np.swapaxes(d_logits, -1, -2) @ q * scale
    d_q, d_k, d_v = (x.reshape(L, -1, d_h) for x in (d_q, d_k, d_v))
    shape = (d_v.shape[1], d_out.shape[-1])
    if crafted:
        # head h's columns are (+0.0 + d_v) + (d_q + d_k): the GEMM parts
        # added head by head from +0.0, whose copies' + 0.0 and +0.0 columns
        # change no bit, as the sum never holds -0.0. A non-finite sum means
        # a non-finite part, whose GEMM spreads NaN: take the GEMMs then
        d_tokens = np.empty(shape)
        by_head = d_tokens.reshape(-1, L, d_h).transpose(1, 0, 2)
        np.add(0.0, d_v, out=by_head)
        by_head += d_q + d_k
        if np.isfinite(d_tokens).all():
            return d_tokens.reshape(d_out.shape)
    d_from_qk = d_q @ enc.w_q + d_k @ enc.w_k
    d_from_v = d_v @ enc.w_v  # (L, rows, D)
    # heads are added one by one, V part then Q/K slice: summing the V
    # parts in one GEMM would round differently
    d_tokens = np.zeros(shape)
    for h in range(L):
        d_tokens += d_from_v[h]
        d_tokens[:, h * d_h : (h + 1) * d_h] += d_from_qk[h]
    return d_tokens.reshape(d_out.shape)


def _mlp_backward(d_out: np.ndarray, core_cache: dict, enc) -> np.ndarray:
    if not core_cache["live"] and enc.copies_mlp() and np.isfinite(d_out).all():
        # the two copies, (d_out + 0.0) + 0.0, at width D; the second
        # + 0.0 changes no bit, as the first leaves no -0.0
        return d_out + 0.0
    d_pre = _dot(d_out, enc.w_mlp2)
    if core_cache["live"]:  # else GELU' is exactly 1.0 everywhere
        d_pre *= gelu_grad(core_cache["pre"])
    return _dot(d_pre, enc.w_mlp1)


def backward_adapters(cache: ForwardCache, backbone: FrozenBackbone,
                      adapters: AdapterSet, cfg: ModelConfig) -> AdapterSet:
    """Exact gradients of the mean cross-entropy loss w.r.t. adapter parameters."""
    if cache.probs is None:
        raise ShapeError("cache was produced without recording; rerun forward")
    if len(cache.sublayers) != cfg.num_adapters:
        raise ShapeError("cache does not match the configured adapter count")

    m = cache.probs.shape[0]
    grads = AdapterSet.zeros(cfg)

    # d(mean CE)/d(logits) = (softmax - onehot) / M
    d_logits = cache.probs.copy()
    d_logits[np.arange(m), cache.final["labels"]] -= 1.0
    d_logits /= m

    d_pooled = d_logits @ backbone.w_cls
    zf_shape = cache.final["zf"].shape
    d_zf = np.zeros(zf_shape)
    if cfg.head_mode == "mean_pool":
        d_zf += d_pooled[..., None, :] / zf_shape[-2]
    else:
        d_zf[..., 0, :] = d_pooled
    d_tokens = _ln_backward(d_zf, cache.final["ln"])

    for s in range(cfg.num_adapters - 1, -1, -1):
        sub = cache.sublayers[s]
        a_cache = sub["adapter"]
        d_a_out = d_tokens  # residual: tokens_out = u + a_out
        # adapter: out = in + act @ w_up.T + b_up
        grads.b_up[s] += d_a_out.sum(axis=(0, 1))
        grads.w_up[s] += np.einsum("mtr,mtd->rd", a_cache["act"], d_a_out).T
        d_act = d_a_out @ adapters.w_up[s]  # per image: flat rounds differently at r=2
        d_v = d_act * (a_cache["v"] > 0.0)  # relu'
        grads.b_down[s] += d_v.sum(axis=(0, 1))
        grads.w_down[s] += np.einsum("mtr,mtd->rd", d_v, a_cache["input"])
        if s == 0:
            break  # no adapter below reads the token gradient
        d_core = d_a_out + _dot(d_v, adapters.w_down[s])

        enc = backbone.encoders[s // 2]
        if sub["is_msa"]:
            d_z = _msa_backward(d_core, sub["core"], enc, cfg.D_h)
        else:
            d_z = _mlp_backward(d_core, sub["core"], enc)
        d_tokens = d_tokens + _ln_backward(d_z, sub["ln"])

    return grads


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


class _MlpPlan:
    """Per-encoder MLP evaluation plan for the suffix path.

    Hidden units that are provably GELU-saturated for every reachable input
    contribute exactly linearly (Phi = 1.0 in float64), so their two matmuls
    collapse into one precomputed D x D product. The proof is a norm bound:
    a LayerNorm output z = xhat * w + b has ||xhat|| = sqrt(D) exactly
    (population variance, eps = 0), so pre_j >= b1_j - ||W1_j|| * z_max.
    Units that cannot be certified stay on the literal gelu path.

    The LayerNorm affine (w, b) is folded into the stored projections, so
    the suffix feeds plain normalized tokens (xhat) straight in.
    """

    def __init__(self, enc):
        d = enc.w_mlp1.shape[1]
        z_max = np.sqrt(d) * np.abs(enc.ln2_w).max() + np.linalg.norm(enc.ln2_b)
        row_norms = np.linalg.norm(enc.w_mlp1, axis=1)
        sat = enc.b_mlp1 - row_norms * z_max >= _PHI_SATURATION + 1e-9
        self.live = np.flatnonzero(~sat)
        w, b = enc.ln2_w, enc.ln2_b
        if sat.any():
            w_lin_t = enc.w_mlp1[sat].T @ enc.w_mlp2[:, sat].T  # (D, D)
            b_sat = enc.w_mlp2[:, sat] @ enc.b_mlp1[sat] + enc.b_mlp2
            self.w_lin_t = np.ascontiguousarray(w[:, None] * w_lin_t)
            self.b_lin = b @ w_lin_t + b_sat
        else:
            self.w_lin_t = None
            self.b_lin = enc.b_mlp2
        w1_live_t = enc.w_mlp1[self.live].T
        self.w1_live_t = np.ascontiguousarray(w[:, None] * w1_live_t)
        self.b1_live = b @ w1_live_t + enc.b_mlp1[self.live]
        self.w2_live_t = enc.w_mlp2[:, self.live].T


class _MsaPlan:
    """Per-encoder attention plan with the LN1 affine folded into Q/K/V.

    ``wqk_t[h]`` maps head h's D_h-slice of xhat to its queries and keys
    side by side, (D_h, 2 D_h), with 1/sqrt(D_h) folded into the query half,
    so one stacked matmul projects every head.
    """

    def __init__(self, enc):
        L, d_h, _ = enc.w_q.shape
        scale = 1.0 / np.sqrt(d_h)
        w = enc.ln1_w.reshape(L, d_h, 1)
        b = enc.ln1_b.reshape(L, 1, d_h)
        wq_t, wk_t = np.swapaxes(enc.w_q, 1, 2), np.swapaxes(enc.w_k, 1, 2)
        self.wqk_t = np.concatenate([w * wq_t * scale, w * wk_t], axis=2)
        self.bqk = np.concatenate([(b @ wq_t + enc.b_q[:, None]) * scale,
                                   b @ wk_t + enc.b_k[:, None]], axis=2)  # (L, 1, 2 D_h)
        wv_all_t = enc.w_v.reshape(-1, enc.w_v.shape[-1]).T  # (D, L*dh)
        self.wv_all_t = np.ascontiguousarray(w.reshape(-1)[:, None] * wv_all_t)
        self.bv_all = enc.ln1_b @ wv_all_t + enc.b_v.reshape(-1)
        self.w_msa_t = enc.w_msa.T.copy()


class _HeadPlan:
    """The classifier with the final LayerNorm affine folded in."""

    def __init__(self, backbone: FrozenBackbone):
        self.w_cls_t = backbone.ln_f_w[:, None] * backbone.w_cls.T
        self.b_cls = backbone.ln_f_b @ backbone.w_cls.T + backbone.b_cls


def _suffix_losses(tokens: np.ndarray, start_sub: int, plans: list,
                   adapters: AdapterSet, cfg: ModelConfig,
                   labels_tiled: np.ndarray) -> np.ndarray:
    """Per-image losses for a (B, T, D) token stack resuming after ``start_sub``.

    ``plans[s]`` is sublayer s's ``_MsaPlan`` or ``_MlpPlan``, and the last
    entry is the ``_HeadPlan``. ``tokens`` is consumed (updated in place as
    the running residual stream).
    """
    L, d_h = cfg.L, cfg.D_h
    B, T, D = tokens.shape
    rows = B * T
    tok2 = tokens.reshape(rows, D)

    def by_head(x):  # (rows, L*d_h) -> (L, B, T, d_h) view
        return x.reshape(B, T, L, d_h).transpose(2, 0, 1, 3)

    for s in range(start_sub + 1, cfg.num_adapters):
        z, _ = layer_normalize(tok2)
        plan = plans[s]
        if s % 2 == 0:
            qk = np.matmul(z.reshape(rows, L, d_h).transpose(1, 0, 2), plan.wqk_t)
            qk += plan.bqk
            qk = qk.reshape(L, B, T, 2 * d_h)
            attn = softmax_rows(qk[..., :d_h] @ np.swapaxes(qk[..., d_h:], -1, -2))
            vs = z @ plan.wv_all_t
            vs += plan.bv_all
            np.matmul(attn, by_head(vs), out=by_head(z))  # z is spent; reuse it
            core = z @ plan.w_msa_t
        else:
            core = z @ plan.w_lin_t if plan.w_lin_t is not None else np.zeros((rows, D))
            core += plan.b_lin
            if len(plan.live):
                pre = z @ plan.w1_live_t
                pre += plan.b1_live
                pre *= normal_cdf(pre)  # gelu; Phi is exactly 1.0 where it saturates
                core += pre @ plan.w2_live_t
        tok2 += adapter_forward(core, adapters, s)[0]
    zf = layer_normalize(tok2)[0].reshape(B, T, D)
    pooled = zf.mean(axis=-2) if cfg.head_mode == "mean_pool" else zf[:, 0, :]
    head = plans[-1]
    logits = pooled @ head.w_cls_t + head.b_cls
    _, _, losses = cross_entropy(logits, labels_tiled)
    return losses


FD_STEP = 1e-5  # h of the central differences
FD_TOLERANCE = 1e-6  # a check passes below this safeguarded relative error
FD_FLOOR = 2e-3  # denominator floor of the relative error


def _moved(cache: ForwardCache, cfg: ModelConfig) -> AdapterSet:
    """True where a +h or -h step of the parameter changes the adapter output.

    A ``w_down[j, d]`` or ``b_down[j]`` step moves it only where it changes
    relu(v_j), a ``w_up[d, j]`` step only where act_j != 0, a ``b_up`` step
    always. Everywhere else both perturbed suffix inputs equal the base bit
    for bit, so the central difference is exactly 0.
    """
    zeros = AdapterSet.zeros(cfg)
    moved = AdapterSet.from_flat(zeros.flat() != 0, zeros)
    moved.b_up[:] = True
    for a in range(cfg.num_adapters):
        a_cache = cache.sublayers[a]["adapter"]
        v, act = a_cache["v"][..., None], a_cache["act"][..., None]  # (M, T, r, 1)
        bump = a_cache["input"][..., None, :]  # (M, T, 1, D)
        for s in (FD_STEP, -FD_STEP):
            moved.w_down[a] |= (relu(v + s * bump) != act).any(axis=(0, 1))
            moved.b_down[a] |= (relu(v[..., 0] + s) != act[..., 0]).any(axis=(0, 1))
        moved.w_up[a] = (act[..., 0] != 0).any(axis=(0, 1))
    return moved


def _build_variants(kind: str, idx: np.ndarray, a_cache: dict,
                    base_out: np.ndarray, w_up: np.ndarray) -> np.ndarray:
    """(2n, M, T, D) adapter outputs for +h then -h single-entry perturbations.

    Uses the bottleneck structure: a perturbed output is the cached base
    output plus a structured delta, so no per-variant matmuls are needed.
    """
    inp, v, act = a_cache["input"], a_cache["v"], a_cache["act"]
    n = len(idx)
    out = np.broadcast_to(base_out, (2 * n,) + base_out.shape).copy()
    signs = (FD_STEP, -FD_STEP)
    if kind in ("w_down", "b_down"):
        if kind == "w_down":
            j_arr, d_arr = np.divmod(idx, inp.shape[-1])
        else:
            j_arr, d_arr = idx, None
        for i in range(n):
            j = j_arr[i]
            bump = inp[..., d_arr[i]] if d_arr is not None else 1.0
            for s_i, s in enumerate(signs):
                delta = relu(v[..., j] + s * bump) - act[..., j]
                out[i + s_i * n] += delta[..., None] * w_up[:, j]
    elif kind == "w_up":
        d_arr, j_arr = np.divmod(idx, w_up.shape[1])
        for i in range(n):
            for s_i, s in enumerate(signs):
                out[i + s_i * n, ..., d_arr[i]] += s * act[..., j_arr[i]]
    else:  # b_up
        for i in range(n):
            for s_i, s in enumerate(signs):
                out[i + s_i * n, ..., idx[i]] += s
    return out


_FD_CHUNK = 24  # perturbed parameters per suffix stack


def finite_diff_gradients(cache: ForwardCache, backbone: FrozenBackbone,
                          adapters: AdapterSet, cfg: ModelConfig,
                          workers: int) -> tuple[AdapterSet, AdapterSet]:
    """(fd, moved): central-difference gradients for every adapter
    parameter, resuming from the batch's full forward ``cache``, and the
    ``_moved`` mask. Unmoved parameters are not differenced: their fd is 0.0.
    The suffix stacks run on ``workers`` threads (``parallel_map``).
    """
    moved = _moved(cache, cfg)
    encs = backbone.encoders
    plans = [_MlpPlan(encs[s // 2]) if s % 2 else _MsaPlan(encs[s // 2])
             for s in range(cfg.num_adapters)] + [_HeadPlan(backbone)]
    labels = cache.final["labels"]
    m = len(labels)

    jobs = []
    for a in range(cfg.num_adapters):
        for kind, mask in moved.tensors().items():
            idx = np.flatnonzero(mask[a])
            jobs += [(a, kind, idx[i : i + _FD_CHUNK])
                     for i in range(0, len(idx), _FD_CHUNK)]

    def run_job(job):
        a, kind, idx = job
        sub = cache.sublayers[a]
        variants = _build_variants(kind, idx, sub["adapter"], sub["a_out"],
                                   adapters.w_up[a])
        variants += sub["u"]  # residual source is the sublayer input
        flat = variants.reshape(-1, *variants.shape[-2:])
        labels_tiled = np.tile(labels, flat.shape[0] // m)
        losses = _suffix_losses(flat, a, plans, adapters, cfg, labels_tiled)
        losses = losses.reshape(2, len(idx), m).mean(axis=-1)
        return (losses[0] - losses[1]) / (2.0 * FD_STEP)

    results = parallel_map(run_job, jobs, workers)
    fd = AdapterSet.zeros(cfg)
    for (a, kind, idx), vals in zip(jobs, results):
        getattr(fd, kind)[a].reshape(-1)[idx] = vals
    return fd, moved


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_params: int
    n_unmoved: int  # differenced without a suffix evaluation: exactly 0
    runtime_s: float
    passed: bool


def finite_diff_check(backbone: FrozenBackbone, adapters: AdapterSet, batch,
                      cfg: ModelConfig, workers: int) -> GradCheckReport:
    """Max safeguarded relative error between analytic and FD gradients.

    rel = |a - f| / max(|a|, |f|, FD_FLOOR). Central differences carry an
    absolute noise floor of roughly eps * |loss| / h, measured at ~1.5e-9
    on the desk configuration, so parameters whose gradients sit below the
    floor are compared absolutely at FD_FLOOR * FD_TOLERANCE (= 2e-9, twice
    the noise floor) instead of drowning the report in quantization noise.
    The check passes when the largest rel is below FD_TOLERANCE.
    """
    t0 = time.perf_counter()
    _, _, cache = forward(batch, backbone, adapters, cfg)
    analytic = backward_adapters(cache, backbone, adapters, cfg).flat()
    fd, moved = finite_diff_gradients(cache, backbone, adapters, cfg, workers)
    fd = fd.flat()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), FD_FLOOR)
    rel = np.abs(analytic - fd) / denom
    worst = int(np.argmax(rel))
    max_rel = float(rel[worst])
    return GradCheckReport(
        max_rel_err=max_rel,
        worst_param=_describe_param(worst, moved),
        n_params=analytic.size,
        n_unmoved=int(analytic.size - moved.flat().sum()),
        runtime_s=time.perf_counter() - t0,
        passed=max_rel < FD_TOLERANCE,
    )


def _describe_param(flat_idx: int, like: AdapterSet) -> str:
    """Name of entry ``flat_idx`` of ``like.flat()``."""
    for name, t in like.tensors().items():
        if flat_idx < t.size:
            adapter_idx, *pos = (int(x) for x in np.unravel_index(flat_idx, t.shape))
            return f"{name}[adapter={adapter_idx}, {tuple(pos)}]"
        flat_idx -= t.size
    return "?"
