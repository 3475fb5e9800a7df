"""Fixed ViT-with-adapters architecture and its forward pass.

Encoder sublayer pattern, repeated twice per encoder (attention then MLP):

    u -> LN -> core (MSA or MLP) -> adapter -> (+ u)

The adapter carries an internal skip connection; the outer residual is taken
from the LayerNorm input. The head consumes the final LayerNorm output,
either mean-pooled over all tokens or from the class token alone.

The forward pass records a cache that supports the hand-written backward
pass in :mod:`adapterleak.grad` and exact suffix re-evaluation (rerunning
from any adapter with modified parameters), which the finite-difference
harness relies on. Attention runs all heads at once, and its cache holds
q, k, v and attn stacked head first, (L, M, T, .). An MLP with no
pre-activation below GELU saturation (crafted backbones) skips the GELU,
which is x * 1.0 = x there, and records ``live = False``.

Adapter parameters and their gradients are one type, :class:`AdapterSet`:
four tensors stacked on a leading adapter axis, read by ``adapter_forward``
as adapter s of the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dataio import Batch
from .errors import ConfigError, ShapeError
from .numerics import _PHI_SATURATION, Rng, as_f64, gelu, relu, softmax_rows

LN_EPS = 0.0  # crafted designs rely on pure population statistics


@dataclass(frozen=True)
class ModelConfig:
    D: int = 96
    L: int = 4
    num_encoders: int = 6
    P: int = 4
    C: int = 3
    H: int = 8
    W: int = 8
    r: int = 8
    num_classes: int = 10
    adapter_activation: str = "relu"
    head_mode: str = "mean_pool"

    def __post_init__(self):
        if self.D % self.L:
            raise ConfigError(f"D={self.D} not divisible by L={self.L}")
        if self.H % self.P or self.W % self.P:
            raise ConfigError(f"image {self.H}x{self.W} not divisible by P={self.P}")
        if self.r < 2:
            raise ConfigError(f"adapter bottleneck r={self.r} must be >= 2")
        if self.N < 1:
            raise ConfigError("need at least one patch")
        if self.adapter_activation not in ("relu", "gelu"):
            raise ConfigError(f"unknown adapter activation {self.adapter_activation!r}")
        if self.head_mode not in ("mean_pool", "class_token"):
            raise ConfigError(f"unknown head mode {self.head_mode!r}")

    @property
    def D_h(self) -> int:
        return self.D // self.L

    @property
    def N(self) -> int:
        return (self.H // self.P) * (self.W // self.P)

    @property
    def patch_dim(self) -> int:
        return self.P * self.P * self.C

    @property
    def num_adapters(self) -> int:
        return 2 * self.num_encoders


@dataclass
class EncoderParams:
    ln1_w: np.ndarray
    ln1_b: np.ndarray
    w_q: np.ndarray  # (L, D_h, D_h)
    b_q: np.ndarray  # (L, D_h)
    w_k: np.ndarray
    b_k: np.ndarray
    w_v: np.ndarray  # (L, D_h, D)
    b_v: np.ndarray  # (L, D_h)
    w_msa: np.ndarray  # (D, D)
    ln2_w: np.ndarray
    ln2_b: np.ndarray
    w_mlp1: np.ndarray  # (4D, D)
    b_mlp1: np.ndarray
    w_mlp2: np.ndarray  # (D, 4D)
    b_mlp2: np.ndarray


@dataclass
class FrozenBackbone:
    embed: np.ndarray  # (D, P^2 C)
    class_token: np.ndarray  # (D,)
    pos: np.ndarray  # (N+1, D)
    encoders: list[EncoderParams]
    ln_f_w: np.ndarray
    ln_f_b: np.ndarray
    w_cls: np.ndarray  # (num_classes, D)
    b_cls: np.ndarray


@dataclass
class AdapterSet:
    """Every adapter's parameters, stacked on a leading adapter axis.

    The only trainable parameters. Their gradients have the same shapes and
    use the same type. The field order is the flat order of ``flat`` and
    ``from_flat`` and the entry order of the adapter and gradient archives.
    """

    w_down: np.ndarray  # (A, r, D)
    b_down: np.ndarray  # (A, r)
    w_up: np.ndarray  # (A, D, r)
    b_up: np.ndarray  # (A, D)

    def __len__(self):
        return len(self.w_down)

    def tensors(self) -> dict[str, np.ndarray]:
        """The four tensors by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "AdapterSet":
        return AdapterSet(*(t.copy() for t in self.tensors().values()))

    def flat(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tensors().values()])

    @classmethod
    def from_flat(cls, v: np.ndarray, like: "AdapterSet") -> "AdapterSet":
        out, pos = [], 0
        for ref in like.tensors().values():
            out.append(v[pos : pos + ref.size].reshape(ref.shape))
            pos += ref.size
        return cls(*out)

    @classmethod
    def zeros(cls, cfg: ModelConfig) -> "AdapterSet":
        a, r, d = cfg.num_adapters, cfg.r, cfg.D
        return cls(np.zeros((a, r, d)), np.zeros((a, r)),
                   np.zeros((a, d, r)), np.zeros((a, d)))

    @classmethod
    def random(cls, cfg: ModelConfig, rng: Rng, scale: float = 0.1) -> "AdapterSet":
        """Normal draws, each adapter's four tensors in turn."""
        out = cls.zeros(cfg)
        for a in range(cfg.num_adapters):
            for t in out.tensors().values():
                t[a] = rng.normal(0.0, scale, t[a].size).reshape(t[a].shape)
        return out


def random_backbone(cfg: ModelConfig, rng: Rng, scale: float = 0.25,
                    live_fraction: float = 0.12) -> FrozenBackbone:
    """Generic random backbone; used for gradient verification, not attacks.

    MLP biases place most GELU units in their exactly-saturated regime (the
    operating point of crafted backbones) and keep ``live_fraction`` of them
    in the curved region, so both branches of the activation are exercised.
    """
    D, Dh, L = cfg.D, cfg.D_h, cfg.L

    def mat(*shape, s=scale):
        return rng.normal(0.0, s, int(np.prod(shape))).reshape(shape)

    encoders = []
    for _ in range(cfg.num_encoders):
        b_mlp1 = 30.0 + 15.0 * rng.uniform(4 * D)
        live = rng.uniform(4 * D) < live_fraction
        b_mlp1[live] = rng.normal(0.0, 2.0, int(live.sum()))
        encoders.append(EncoderParams(
            ln1_w=1.0 + mat(D, s=0.1), ln1_b=mat(D, s=0.1),
            w_q=mat(L, Dh, Dh), b_q=mat(L, Dh, s=0.1),
            w_k=mat(L, Dh, Dh), b_k=mat(L, Dh, s=0.1),
            w_v=mat(L, Dh, D, s=scale / np.sqrt(D / Dh)), b_v=mat(L, Dh, s=0.1),
            w_msa=mat(D, D, s=scale / 2), ln2_w=1.0 + mat(D, s=0.1), ln2_b=mat(D, s=0.1),
            w_mlp1=mat(4 * D, D, s=scale / 2), b_mlp1=b_mlp1,
            w_mlp2=mat(D, 4 * D, s=scale / 2), b_mlp2=mat(D, s=0.1),
        ))
    return FrozenBackbone(
        embed=mat(D, cfg.patch_dim),
        class_token=mat(D, s=0.1),
        pos=mat(cfg.N + 1, D, s=1.0),
        encoders=encoders,
        ln_f_w=1.0 + mat(D, s=0.1),
        ln_f_b=mat(D, s=0.1),
        w_cls=mat(cfg.num_classes, D, s=0.1),
        b_cls=np.zeros(cfg.num_classes),
    )


def unpatchify(patches: np.ndarray, p: int, c: int, h: int, w: int) -> np.ndarray:
    """Exact inverse of :func:`patchify_batch`: (..., N, C p^2) -> (..., C, H, W)."""
    patches = as_f64(patches)
    n = patches.ndim - 2
    tiles = patches.reshape(*patches.shape[:n], h // p, w // p, c, p, p)
    tiles = tiles.transpose(*range(n), n + 2, n, n + 3, n + 1, n + 4)
    return tiles.reshape(*patches.shape[:n], c, h, w)


def patchify_batch(images: np.ndarray, p: int) -> np.ndarray:
    """Split (M, C, H, W) images into (M, N, C p^2) row-major patches,
    each flattened channel-major."""
    images = as_f64(images)
    m, c, h, w = images.shape
    if h % p or w % p:
        raise ShapeError(f"{h}x{w} image not divisible by patch side {p}")
    gh, gw = h // p, w // p
    # (M, C, gh, p, gw, p) -> (M, gh, gw, C, p, p) -> (M, N, C*p*p)
    tiles = images.reshape(m, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
    return tiles.reshape(m, gh * gw, c * p * p)


def _dot(x: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """x @ w_t with the leading axes flattened so BLAS sees one large GEMM."""
    lead = x.shape[:-1]
    return (x.reshape(-1, x.shape[-1]) @ w_t).reshape(*lead, w_t.shape[-1])


def _layer_norm_cached(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)  # numpy's own var arithmetic
    inv_sd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = d * inv_sd
    return xhat * w + b, {"xhat": xhat, "inv_sd": inv_sd, "w": w}


def adapter_forward(tokens: np.ndarray, adapters: AdapterSet, s: int,
                    activation: str = "relu"):
    """Bottleneck adapter s with internal skip: in + W_up act(W_down in + b) + b_up."""
    act_fn = relu if activation == "relu" else gelu
    v = _dot(tokens, adapters.w_down[s].T) + adapters.b_down[s]
    act = act_fn(v)
    out = tokens + _dot(act, adapters.w_up[s].T) + adapters.b_up[s]
    return out, {"input": tokens, "v": v, "act": act}


def msa_forward(tokens: np.ndarray, enc: EncoderParams, d_h: int):
    """Multi-head self attention over (..., T, D) tokens, all heads at once.

    Queries and keys for head h are built from the head's own D_h-slice;
    values are a general D_h x D projection of the full token, so a head can
    read coordinates outside its slice. The cache holds every head, head
    first: q, k and v as (L, ..., T, D_h), attn as (L, ..., T, T).
    """
    L = enc.w_q.shape[0]
    lead = tokens.shape[:-2]
    flat = tokens.reshape(-1, tokens.shape[-1])
    # one GEMM per head, stacked: a single GEMM over all heads' columns
    # would round differently for some batch sizes
    by_head = flat.reshape(-1, L, d_h).transpose(1, 0, 2)  # (L, rows, D_h)
    q = by_head @ np.swapaxes(enc.w_q, 1, 2) + enc.b_q[:, None, :]
    k = by_head @ np.swapaxes(enc.w_k, 1, 2) + enc.b_k[:, None, :]
    v = flat @ np.swapaxes(enc.w_v, 1, 2) + enc.b_v[:, None, :]
    q, k, v = (x.reshape(L, *lead, -1, d_h) for x in (q, k, v))
    attn = softmax_rows((q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(d_h)))
    concat = np.moveaxis(attn @ v, 0, -2).reshape(tokens.shape)
    out = _dot(concat, enc.w_msa.T)
    return out, {"q": q, "k": k, "v": v, "attn": attn}


def _mlp_forward(z: np.ndarray, enc: EncoderParams):
    pre = _dot(z, enc.w_mlp1.T) + enc.b_mlp1
    live = bool((pre < _PHI_SATURATION).any())  # else GELU is x * 1.0 = x
    out = _dot(gelu(pre) if live else pre, enc.w_mlp2.T) + enc.b_mlp2
    return out, {"pre": pre, "live": live}


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy with a stable log-sum-exp; returns (loss, probs)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    losses = -logp[np.arange(len(labels)), labels]
    probs = np.exp(logp)
    return float(np.mean(losses)), probs, losses


@dataclass
class ForwardCache:
    sublayers: list = field(default_factory=list)  # per-sublayer dicts
    final: dict = field(default_factory=dict)
    probs: np.ndarray | None = None

    def adapter_input(self, a: int) -> np.ndarray:
        return self.sublayers[a]["adapter"]["input"]


def build_tokens(batch: Batch, backbone: FrozenBackbone, cfg: ModelConfig) -> np.ndarray:
    patches = patchify_batch(batch.images, cfg.P)  # (M, N, P^2C)
    x_map = patches @ backbone.embed.T  # (M, N, D)
    m = batch.size
    tokens = np.empty((m, cfg.N + 1, cfg.D))
    tokens[:, 0, :] = backbone.class_token + backbone.pos[0]
    tokens[:, 1:, :] = x_map + backbone.pos[1:]
    return tokens


def _run_sublayer(tokens, s, backbone, adapters, cfg, record):
    """One sublayer: LN -> core -> adapter -> residual. Returns new tokens."""
    enc = backbone.encoders[s // 2]
    is_msa = s % 2 == 0
    w_ln = enc.ln1_w if is_msa else enc.ln2_w
    b_ln = enc.ln1_b if is_msa else enc.ln2_b
    z, ln_cache = _layer_norm_cached(tokens, w_ln, b_ln)
    if is_msa:
        core, core_cache = msa_forward(z, enc, cfg.D_h)
    else:
        core, core_cache = _mlp_forward(z, enc)
    a_out, a_cache = adapter_forward(core, adapters, s, cfg.adapter_activation)
    record.append({
        "u": tokens, "ln": ln_cache, "z": z, "is_msa": is_msa,
        "core": core_cache, "adapter": a_cache, "a_out": a_out,
    })
    return tokens + a_out


def _head(tokens, backbone, cfg, labels, record):
    zf, lnf_cache = _layer_norm_cached(tokens, backbone.ln_f_w, backbone.ln_f_b)
    if cfg.head_mode == "mean_pool":
        pooled = zf.mean(axis=-2)
    else:
        pooled = zf[..., 0, :]
    logits = _dot(pooled, backbone.w_cls.T) + backbone.b_cls
    loss, probs, _ = cross_entropy(logits.reshape(-1, cfg.num_classes), labels)
    record.update({"ln": lnf_cache, "zf": zf, "labels": np.asarray(labels)})
    return logits, loss, probs


def forward(batch: Batch, backbone: FrozenBackbone, adapters: AdapterSet,
            cfg: ModelConfig, stop_after: int | None = None):
    """Full forward pass; returns (logits, loss, cache).

    With ``stop_after = k`` only sublayers 0..k run and the head is skipped:
    logits and loss are None, and the cache holds those k + 1 sublayers,
    equal to the first k + 1 of a full pass.
    """
    if len(adapters) != cfg.num_adapters:
        raise ShapeError(f"expected {cfg.num_adapters} adapters, got {len(adapters)}")
    last = cfg.num_adapters - 1 if stop_after is None else stop_after
    if not 0 <= last < cfg.num_adapters:
        raise ShapeError(f"cannot stop after sublayer {last} of {cfg.num_adapters}")
    tokens = build_tokens(batch, backbone, cfg)
    cache = ForwardCache()
    for s in range(last + 1):
        tokens = _run_sublayer(tokens, s, backbone, adapters, cfg, cache.sublayers)
    if stop_after is not None:
        return None, None, cache
    logits, loss, cache.probs = _head(tokens, backbone, cfg, batch.labels, cache.final)
    return logits, loss, cache
