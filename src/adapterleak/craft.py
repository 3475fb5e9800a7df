"""Server-side parameter factory for the inversion attack.

Builds a frozen backbone whose encoders propagate the position-encoded
patch embeddings essentially unchanged (LayerNorm weights matched to the
encoding scale, identity attention via dominant self-logits, identity MLP
via GELU saturation), and adapter parameters whose down-projection neurons
gate patches by the scalar statistic (E_pos_t . x_map).

Two refinements over the naive construction matter at small embedding
widths, where LayerNorm's per-token statistics are not negligible:

* Weight rows are content-matched to E_pos_t but orthogonalized against
  E_pos_t itself and the all-ones vector. A row with a large dot product
  onto its own token would cancel the statistic: LayerNorm divides by the
  per-token std, whose content dependence enters through exactly that
  statistic, so the naive row sees a pre-activation that is constant to
  first order. Zeroing the row's self-projection removes the feedback and
  restores unit sensitivity.
* Biases come from probing: the server pushes synthetic tokens whose
  statistic sits exactly at each threshold through its own crafted
  backbone and reads the resulting pre-activation at every assigned
  adapter. Gating boundaries then land on the planned thresholds in
  true-statistic space regardless of residual normalization effects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import Batch
from .errors import ConfigError
from .model import (AdapterSet, EncoderParams, FrozenBackbone, ModelConfig,
                    forward, unpatchify)
from .numerics import Rng, inverse_normal_cdf, sample
from .stats import PatchStats


@dataclass(frozen=True)
class CraftConfig:
    sigma_pos: float = 10.0
    pos_dist: str = "gaussian"
    gamma: float = 1e4
    epsilon_up: float = 1e-6
    margin: float = 50.0
    fingerprint_enabled: bool = False
    embed_mode: str = "identity_pad"
    seed: int = 0

    def __post_init__(self):
        if self.sigma_pos <= 0:
            raise ConfigError("sigma_pos must be positive")
        if not 0 < self.epsilon_up < 1:
            raise ConfigError("epsilon_up must lie in (0, 1)")
        if self.gamma < 100:
            raise ConfigError("gamma must dominate the embedding magnitude")
        if self.pos_dist not in ("gaussian", "laplacian"):
            raise ConfigError(f"unknown position distribution {self.pos_dist!r}")
        if self.embed_mode not in ("identity_pad", "average_pool"):
            raise ConfigError(f"unknown embed mode {self.embed_mode!r}")


@dataclass
class Assignment:
    adapter: int
    position: int
    slot: int


@dataclass
class AttackPlan:
    """Everything the attack side needs beyond the observed gradients."""

    assignments: list[Assignment]
    thresholds: dict[int, np.ndarray]  # position -> (R, k_t), strictly increasing rows
    rounds: int
    r: int
    stats_mu: np.ndarray
    stats_sigma: np.ndarray
    content_rows: np.ndarray
    correction_rows: np.ndarray
    e_pinv: np.ndarray
    pixel_groups: np.ndarray | None
    embed_mode: str
    fingerprint_enabled: bool
    fingerprint_rows: np.ndarray
    fingerprint_delta: float
    n_patches: int
    d_h: int
    patch_dim: int

    def positions(self) -> list[int]:
        return sorted(self.thresholds)

    def adapters_for(self, t: int) -> list[Assignment]:
        return sorted((a for a in self.assignments if a.position == t),
                      key=lambda a: a.slot)

    def grid(self, t: int, round_idx: int) -> np.ndarray:
        return self.thresholds[t][round_idx]


def standardized_encoding(raw: np.ndarray, sigma: float) -> np.ndarray:
    """Center and rescale one encoding vector to mean 0, population std sigma."""
    v = raw - raw.mean()
    sd = v.std()
    if sd == 0.0:
        raise ConfigError("degenerate position encoding draw")
    return v * (sigma / sd)


def _margin_ok(pos: np.ndarray, d_h: int, margin: float) -> bool:
    n_tok, d = pos.shape
    for h in range(d // d_h):
        sl = pos[:, h * d_h : (h + 1) * d_h]
        gram = sl @ sl.T
        self_dots = np.diag(gram)
        for t in range(n_tok):
            others = np.delete(gram[t], t)
            if (self_dots[t] - others.max()) / np.sqrt(d_h) < margin:
                return False
    return True


def craft_position_encodings(cfg: CraftConfig, n: int, d: int, d_h: int,
                             rng: Rng | None = None) -> np.ndarray:
    """N+1 encoding vectors with a certified attention-logit separation.

    Each vector is drawn i.i.d. from the configured distribution and then
    standardized to mean 0 / std sigma, which pins the LayerNorm statistics
    the rest of the design relies on. Draws are rejected until every token's
    self logit beats every cross logit by the configured margin in every
    head.
    """
    if n < 1:
        raise ConfigError("need at least one patch position")
    rng = rng or Rng(cfg.seed)
    for _ in range(1000):
        raw = sample(cfg.pos_dist, 0.0, cfg.sigma_pos, (n + 1) * d, rng)
        pos = raw.reshape(n + 1, d)
        pos = np.stack([standardized_encoding(v, cfg.sigma_pos) for v in pos])
        if _margin_ok(pos, d_h, cfg.margin):
            return pos
    raise ConfigError(
        f"no encoding draw reached margin {cfg.margin} in 1000 attempts; "
        f"increase sigma_pos or the head dimension")


def craft_embedding_matrix(cfg: CraftConfig, model_cfg: ModelConfig):
    """Embedding matrix, its pseudoinverse, and the content-row bookkeeping.

    identity_pad: E = 0.5 [I; 0] with zeroed reserved rows; exact inverse.
    average_pool: rows average disjoint pixel groups (spatial s x s blocks
    when the group size is a perfect square), recovering group means.
    """
    d, pdim = model_cfg.D, model_cfg.patch_dim
    reserved = model_cfg.D_h if cfg.fingerprint_enabled else 0
    usable = d - reserved
    mode = cfg.embed_mode
    if mode == "identity_pad" and usable < pdim:
        raise ConfigError(
            f"identity_pad needs D - reserved >= {pdim}, have {usable}; "
            f"use average_pool")
    if mode == "identity_pad":
        e = np.zeros((d, pdim))
        e[:pdim, :pdim] = 0.5 * np.eye(pdim)
        e_pinv = np.zeros((pdim, d))
        e_pinv[:pdim, :pdim] = 2.0 * np.eye(pdim)
        groups = None
        content_rows = np.arange(pdim)
    else:
        g = -(-pdim // usable)  # ceil
        groups = _pixel_groups(model_cfg, g)
        n_groups = int(groups.max()) + 1
        if n_groups > usable:
            raise ConfigError("average_pool cannot fit the pixel groups")
        e = np.zeros((d, pdim))
        e_pinv = np.zeros((pdim, d))
        for gi in range(n_groups):
            members = np.flatnonzero(groups == gi)
            e[gi, members] = 0.5 / len(members)
            e_pinv[members, gi] = 2.0
        content_rows = np.arange(n_groups)
    return e, e_pinv, content_rows, groups


def _pixel_groups(model_cfg: ModelConfig, g: int) -> np.ndarray:
    """Group index per flattened patch pixel; spatial blocks when g is square."""
    p, c = model_cfg.P, model_cfg.C
    side = int(round(np.sqrt(g)))
    idx = np.arange(p * p * c)
    if side * side == g and p % side == 0:
        ch, rem = np.divmod(idx, p * p)
        py, px = np.divmod(rem, p)
        blocks_per_row = p // side
        block = (py // side) * blocks_per_row + (px // side)
        return ch * (blocks_per_row * blocks_per_row) + block
    return idx // g


def craft_backbone(cfg: CraftConfig, model_cfg: ModelConfig):
    """Frozen backbone realizing near-identity propagation of the embeddings.

    Returns (backbone, embed_info) where embed_info carries the embedding
    pseudoinverse and row bookkeeping for the attack plan.
    """
    d, d_h, L = model_cfg.D, model_cfg.D_h, model_cfg.L
    rng = Rng(cfg.seed)
    pos = craft_position_encodings(cfg, model_cfg.N, d, d_h, rng.spawn(1))
    e, e_pinv, content_rows, groups = craft_embedding_matrix(cfg, model_cfg)

    sigma_vec = np.full(d, cfg.sigma_pos)
    zeros = np.zeros(d)
    eye_h = np.stack([np.eye(d_h)] * L)
    selector = np.zeros((L, d_h, d))
    for h in range(L):
        selector[h, :, h * d_h : (h + 1) * d_h] = np.eye(d_h)
    w_mlp1 = np.zeros((4 * d, d))
    w_mlp1[:d, :d] = np.eye(d)
    w_mlp2 = np.zeros((d, 4 * d))
    w_mlp2[:d, :d] = np.eye(d)

    encoders = []
    for _ in range(model_cfg.num_encoders):
        encoders.append(EncoderParams(
            ln1_w=sigma_vec.copy(), ln1_b=zeros.copy(),
            w_q=eye_h.copy(), b_q=np.zeros((L, d_h)),
            w_k=eye_h.copy(), b_k=np.zeros((L, d_h)),
            w_v=selector.copy(), b_v=np.zeros((L, d_h)),
            w_msa=np.eye(d),
            ln2_w=sigma_vec.copy(), ln2_b=zeros.copy(),
            w_mlp1=w_mlp1.copy(), b_mlp1=np.full(4 * d, cfg.gamma),
            w_mlp2=w_mlp2.copy(), b_mlp2=np.full(d, -cfg.gamma),
        ))

    head_rng = rng.spawn(2)
    backbone = FrozenBackbone(
        embed=e,
        class_token=np.zeros(d),
        pos=pos,
        encoders=encoders,
        ln_f_w=sigma_vec.copy(),
        ln_f_b=zeros.copy(),
        w_cls=head_rng.normal(0.0, 1e-2, model_cfg.num_classes * d).reshape(
            model_cfg.num_classes, d),
        b_cls=np.zeros(model_cfg.num_classes),
    )
    if cfg.fingerprint_enabled:
        craft_fingerprint_head(backbone, model_cfg)
    embed_info = {
        "e_pinv": e_pinv,
        "content_rows": content_rows,
        "pixel_groups": groups,
    }
    return backbone, embed_info


def craft_fingerprint_head(backbone: FrozenBackbone, model_cfg: ModelConfig) -> None:
    """Make the first encoder's last head tag every token with patch 1 content.

    Queries are constant (zero weights, bias = position 1's key), so every
    token attends to position 1; the value projection copies coordinates
    [0, D_h) of the attended token, and the identity output projection
    routes this head's block to the reserved tail coordinates.
    """
    d_h, L = model_cfg.D_h, model_cfg.L
    if model_cfg.patch_dim > model_cfg.D - d_h:
        raise ConfigError("no reserved coordinates available for a fingerprint")
    enc = backbone.encoders[0]
    h = L - 1
    enc.w_q[h] = 0.0
    enc.b_q[h] = backbone.pos[1, h * d_h : (h + 1) * d_h]
    enc.w_v[h] = 0.0
    enc.w_v[h, :, :d_h] = np.eye(d_h)


def interleaved_quantiles(k: int, rounds: int, round_idx: int) -> np.ndarray:
    """Round rho's quantile levels: (j * R - rho) / (k * R + 1), j = 1..k.

    The union over rounds is the full (k * R + 1)-quantile grid, so every
    round refines the coverage with a shifted, equally spaced subgrid.
    """
    if not 0 <= round_idx < rounds:
        raise ConfigError("round index out of range")
    j = np.arange(1, k + 1)
    return (j * rounds - round_idx) / (k * rounds + 1.0)


def build_attack_plan(stats: PatchStats, model_cfg: ModelConfig,
                      positions: list[int], adapters_per_position: int,
                      rounds: int, embed_info: dict,
                      craft_cfg: CraftConfig,
                      fingerprint_delta: float = 1.0) -> AttackPlan:
    """Assign adapters to target positions and lay the threshold grids."""
    if not positions:
        raise ConfigError("no target positions")
    if rounds < 1:
        raise ConfigError("need at least one round")
    s_t = adapters_per_position
    if s_t < 1:
        raise ConfigError("need at least one adapter per position")
    need = s_t * len(positions)
    if need > model_cfg.num_adapters:
        raise ConfigError(
            f"plan needs {need} adapters, model has {model_cfg.num_adapters}")
    k_t = s_t * model_cfg.r

    assignments = []
    nxt = 0
    for t in positions:
        if not 1 <= t <= model_cfg.N:
            raise ConfigError(f"position {t} outside 1..{model_cfg.N}")
        for s in range(s_t):
            assignments.append(Assignment(adapter=nxt, position=t, slot=s))
            nxt += 1

    thresholds = {}
    for t in positions:
        mu_t, sigma_t = stats.for_position(t)
        if sigma_t <= 0:
            raise ConfigError(f"degenerate statistic spread at position {t}")
        grids = np.empty((rounds, k_t))
        for rho in range(rounds):
            q = interleaved_quantiles(k_t, rounds, rho)
            grids[rho] = inverse_normal_cdf(q, mu_t, sigma_t)
        thresholds[t] = grids

    d_h = model_cfg.D_h
    content_rows = embed_info["content_rows"]
    reserved = np.arange(model_cfg.D - d_h, model_cfg.D) if craft_cfg.fingerprint_enabled \
        else np.empty(0, dtype=int)
    correction = np.setdiff1d(np.arange(model_cfg.D),
                              np.concatenate([content_rows, reserved]))
    if len(correction) < model_cfg.N + 2:
        raise ConfigError(
            "not enough content-free coordinates for embedding correction; "
            "shrink the patch or grow D")
    return AttackPlan(
        assignments=assignments,
        thresholds=thresholds,
        rounds=rounds,
        r=model_cfg.r,
        stats_mu=stats.mu.copy(),
        stats_sigma=stats.sigma.copy(),
        content_rows=np.asarray(content_rows, dtype=int),
        correction_rows=correction,
        e_pinv=embed_info["e_pinv"],
        pixel_groups=embed_info["pixel_groups"],
        embed_mode=craft_cfg.embed_mode,
        fingerprint_enabled=craft_cfg.fingerprint_enabled,
        fingerprint_rows=reserved,
        fingerprint_delta=fingerprint_delta,
        n_patches=model_cfg.N,
        d_h=d_h,
        patch_dim=model_cfg.patch_dim,
    )


def gating_row(pos: np.ndarray, t: int, plan: AttackPlan, model_cfg: ModelConfig,
               craft_cfg: CraftConfig) -> np.ndarray:
    """Down-projection weight row for target position t.

    Content coordinates copy E_pos_t so the row measures the statistic;
    the remaining free coordinates take the minimum-norm solution that
    zeroes the row's projection onto E_pos_t and the all-ones vector and
    pins its dot with every other token's encoding at -margin * sqrt(D_h)
    (the blocking level).
    """
    d = model_cfg.D
    blocking = -craft_cfg.margin * np.sqrt(model_cfg.D_h)
    w = np.zeros(d)
    w[plan.content_rows] = pos[t, plan.content_rows]
    free = np.setdiff1d(np.arange(d), np.concatenate(
        [plan.content_rows, plan.fingerprint_rows]))
    others = [n for n in range(model_cfg.N + 1) if n != t]
    a_rows = [pos[t, free], np.ones(len(free))]
    rhs = [-w @ pos[t], -w.sum()]
    for n in others:
        a_rows.append(pos[n, free])
        rhs.append(blocking - w @ pos[n])
    a = np.stack(a_rows)
    if len(free) < len(rhs):
        raise ConfigError("not enough free coordinates to orthogonalize the row")
    gram = a @ a.T
    try:
        coef = np.linalg.solve(gram, np.asarray(rhs))
    except np.linalg.LinAlgError as exc:
        raise ConfigError("degenerate encoding geometry for gating row") from exc
    w[free] = a.T @ coef
    return w


def _probe_batch(plan: AttackPlan, pos: np.ndarray, t: int,
                 model_cfg: ModelConfig, round_idx: int) -> Batch:
    """Synthetic images placing one probe patch at position t per threshold."""
    epc = pos[t, plan.content_rows]
    grid = plan.grid(t, round_idx)
    patches = np.zeros((len(grid), model_cfg.N, model_cfg.patch_dim))
    # content x with statistic exactly c: x = c / (0.5 ||epc||^2) * epc,
    # mapped back through the embedding's row structure
    for i, c in enumerate(grid):
        x = (c / (0.5 * (epc @ epc))) * epc
        if plan.embed_mode == "identity_pad":
            patches[i, t - 1, : len(epc)] = x
        else:
            patches[i, t - 1] = x[plan.pixel_groups]
    images = unpatchify(patches, model_cfg.P, model_cfg.C, model_cfg.H, model_cfg.W)
    return Batch(images, np.zeros(len(grid), dtype=np.int64))


_DOWN_SCALE = 1e-6  # common factor of the crafted down-projection rows and biases


def craft_adapters(plan: AttackPlan, backbone: FrozenBackbone,
                   craft_cfg: CraftConfig, model_cfg: ModelConfig,
                   round_idx: int) -> AdapterSet:
    """Adapter parameters for one attack round.

    Biases are probe-calibrated: for each planned threshold the server runs
    a zero-content token set with the statistic pinned at that threshold
    through its own backbone and negates the observed pre-activation, so
    the relu boundary sits exactly at the threshold in statistic space.
    A position's probes run only through the deepest adapter assigned to
    it; no later sublayer is read. The up-projection leaks every neuron's
    activation into output coordinate 0 at epsilon magnitude, giving all r
    neurons a gradient path while perturbing propagation below every
    tolerance in play.

    Weight rows and biases carry a common factor ``_DOWN_SCALE``. Gating signs
    and the recovery ratio are invariant to it, but it shrinks the neuron
    activations and with them the up-projection's own gradient, so multi-
    epoch local training cannot rewrite the leak row that the
    pair-difference trick needs to stay uniform across neurons.
    """
    r = model_cfg.r
    adapters = AdapterSet.zeros(model_cfg)
    adapters.w_up[:, 0, :] = craft_cfg.epsilon_up

    no_adapters = AdapterSet.zeros(model_cfg)
    for t in plan.positions():
        row = gating_row(backbone.pos, t, plan, model_cfg, craft_cfg)
        assigned = plan.adapters_for(t)
        probe = _probe_batch(plan, backbone.pos, t, model_cfg, round_idx)
        _, _, cache = forward(probe, backbone, no_adapters, model_cfg,
                              max(a.adapter for a in assigned))
        for assign in assigned:
            a = assign.adapter
            adapters.w_down[a] = _DOWN_SCALE * row
            inputs = cache.adapter_input(a)  # (k_t, N+1, D)
            for j in range(r):
                q = assign.slot * r + j
                adapters.b_down[a, j] = -_DOWN_SCALE * float(row @ inputs[q, t])
    return adapters


def measure_fingerprint_delta(public_images: np.ndarray, e: np.ndarray,
                              model_cfg: ModelConfig) -> float:
    """Clustering threshold: half the 5th-percentile inter-image tag distance.

    The tag carried to the reserved coordinates is the first patch's content
    embedding slice, so inter-image distances on public data bound how far
    apart distinct images land; intra-image spread is orders smaller.
    """
    from .model import patchify_batch

    d_h = model_cfg.D_h
    patches = patchify_batch(public_images, model_cfg.P)
    tags = (patches[:, 0, :] @ e.T)[:, :d_h]
    m = tags.shape[0]
    dists = [float(np.linalg.norm(tags[i] - tags[j]))
             for i in range(m) for j in range(i + 1, m)]
    if not dists:
        return 1.0
    return 0.5 * float(np.percentile(dists, 5))


def plan_to_json(plan: AttackPlan) -> str:
    payload = {
        "assignments": [[a.adapter, a.position, a.slot] for a in plan.assignments],
        "thresholds": {str(t): g.tolist() for t, g in plan.thresholds.items()},
        "rounds": plan.rounds,
        "r": plan.r,
        "stats_mu": plan.stats_mu.tolist(),
        "stats_sigma": plan.stats_sigma.tolist(),
        "content_rows": plan.content_rows.tolist(),
        "correction_rows": plan.correction_rows.tolist(),
        "e_pinv": plan.e_pinv.tolist(),
        "pixel_groups": None if plan.pixel_groups is None else plan.pixel_groups.tolist(),
        "embed_mode": plan.embed_mode,
        "fingerprint_enabled": plan.fingerprint_enabled,
        "fingerprint_rows": plan.fingerprint_rows.tolist(),
        "fingerprint_delta": plan.fingerprint_delta,
        "n_patches": plan.n_patches,
        "d_h": plan.d_h,
        "patch_dim": plan.patch_dim,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def plan_from_json(text: str) -> AttackPlan:
    obj = json.loads(text)
    return AttackPlan(
        assignments=[Assignment(*row) for row in obj["assignments"]],
        thresholds={int(t): np.asarray(g, dtype=np.float64)
                    for t, g in obj["thresholds"].items()},
        rounds=obj["rounds"],
        r=obj["r"],
        stats_mu=np.asarray(obj["stats_mu"], dtype=np.float64),
        stats_sigma=np.asarray(obj["stats_sigma"], dtype=np.float64),
        content_rows=np.asarray(obj["content_rows"], dtype=int),
        correction_rows=np.asarray(obj["correction_rows"], dtype=int),
        e_pinv=np.asarray(obj["e_pinv"], dtype=np.float64),
        pixel_groups=None if obj["pixel_groups"] is None
        else np.asarray(obj["pixel_groups"], dtype=int),
        embed_mode=obj["embed_mode"],
        fingerprint_enabled=obj["fingerprint_enabled"],
        fingerprint_rows=np.asarray(obj["fingerprint_rows"], dtype=int),
        fingerprint_delta=obj["fingerprint_delta"],
        n_patches=obj["n_patches"],
        d_h=obj["d_h"],
        patch_dim=obj["patch_dim"],
    )
