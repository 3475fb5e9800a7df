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
from functools import cached_property

import numpy as np

from .dataio import Batch
from .errors import ConfigError, FormatError
from .model import (AdapterSet, EncoderParams, FrozenBackbone, ModelConfig,
                    forward, unpatchify)
from .numerics import Rng, inverse_normal_cdf
from .stats import PatchStats


@dataclass(frozen=True)
class CraftConfig:
    sigma_pos: float = 10.0
    pos_dist: str = "gaussian"
    gamma: float = 1e4
    epsilon_up: float = 1e-6
    margin: float = 50.0
    embed_mode: str = "identity_pad"
    seed: int = 7

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


@dataclass(frozen=True)
class Bin:
    """A pair-resolvable bin: neurons ``neuron`` and ``neuron + 1`` of ``adapter`` gate
    at grid entries q = slot * r + neuron and q + 1; the top bin pairs r - 1 with zero."""

    q: int
    adapter: int
    neuron: int
    top: bool


@dataclass
class AttackPlan:
    """Everything the attack side needs beyond the observed gradients and the
    backbone: which adapters gate which positions, and at what thresholds."""

    assignments: list[Assignment]
    thresholds: dict[int, np.ndarray]  # position -> (R, k_t), strictly increasing rows
    rounds: int
    r: int
    stats_sigma: np.ndarray

    def positions(self) -> list[int]:
        return sorted(self.thresholds)

    def adapters_for(self, t: int) -> list[Assignment]:
        return sorted((a for a in self.assignments if a.position == t),
                      key=lambda a: a.slot)

    def bins(self, t: int) -> tuple[Bin, ...]:
        """Position t's S_t (r - 1) + 1 pair-resolvable bins, in grid order.

        Neuron j of the adapter in slot s gates at ``grid[s * r + j]``. The
        gap between two adapters' blocks is not resolvable: their neurons sit
        at different depths, with different gradient prefactors.
        """
        return self._bins[t]

    @cached_property
    def _bins(self) -> dict[int, tuple[Bin, ...]]:
        r, out = self.r, {}
        for t in self.positions():
            assigns = self.adapters_for(t)
            last = assigns[-1]
            out[t] = (*(Bin(a.slot * r + j, a.adapter, j, False)
                        for a in assigns for j in range(r - 1)),
                      Bin(last.slot * r + r - 1, last.adapter, r - 1, True))
        return out

    def bounds(self, t: int, round_idx: int, q: int):
        """(lo, hi) of bin q in round ``round_idx``; hi is inf for the top bin."""
        grid = self.thresholds[t][round_idx]
        return grid[q], grid[q + 1] if q + 1 < len(grid) else np.inf


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
    rng = rng or Rng(cfg.seed)
    draw = rng.normal if cfg.pos_dist == "gaussian" else rng.laplace
    for _ in range(1000):
        pos = draw(0.0, cfg.sigma_pos, (n + 1) * d).reshape(n + 1, d)
        pos = np.stack([standardized_encoding(v, cfg.sigma_pos) for v in pos])
        if _margin_ok(pos, d_h, cfg.margin):
            return pos
    raise ConfigError(
        f"no encoding draw reached margin {cfg.margin} in 1000 attempts; "
        f"increase sigma_pos or the head dimension")


def craft_embedding_matrix(cfg: CraftConfig, model_cfg: ModelConfig) -> np.ndarray:
    """Embedding matrix E: row g averages pixel group g at weight 0.5.

    identity_pad: every pixel is its own group, E = 0.5 [I; 0].
    average_pool: disjoint pixel groups (spatial s x s blocks when the group
    size is a perfect square), so E^+ recovers group means.
    """
    d, pdim = model_cfg.D, model_cfg.patch_dim
    if cfg.embed_mode == "identity_pad":
        if d < pdim:
            raise ConfigError(
                f"identity_pad needs D >= {pdim}, have {d}; use average_pool")
        groups = np.arange(pdim)
    else:
        # group size ceil(pdim / D) leaves at most D groups
        groups = _pixel_groups(model_cfg, -(-pdim // d))
    sizes = np.bincount(groups)
    e = np.zeros((d, pdim))
    e[groups, np.arange(pdim)] = 0.5 / sizes[groups]
    return e


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


@dataclass(frozen=True)
class EmbeddingLayout:
    """Which token coordinates carry pixels, and how to read them back."""

    content_rows: np.ndarray  # rows of E that read some pixel
    correction_rows: np.ndarray  # the other rows: pure position encoding
    e_pinv: np.ndarray  # (patch_dim, D) pseudoinverse of E
    pixel_groups: np.ndarray  # per pixel, the one row that reads it


def embedding_layout(embed: np.ndarray, n_patches: int) -> EmbeddingLayout:
    """The layout of a crafted embedding matrix E, read from its sparsity.

    Every pixel of a crafted E feeds exactly one row, at weight 0.5 / (the
    row's pixel count), so E^+ = [E != 0]^T / 0.5. ConfigError for an E with
    a pixel that feeds no row or several, or with fewer than n_patches + 2
    content-free rows, which the gating rows and the attack's LayerNorm
    correction need.
    """
    reads = embed != 0
    per_pixel = reads.sum(axis=0)
    if np.any(per_pixel != 1):
        p = int(np.flatnonzero(per_pixel != 1)[0])
        raise ConfigError(f"the embedding is not a crafted one: pixel {p} feeds "
                          f"{per_pixel[p]} rows, not 1")
    content = reads.any(axis=1)
    correction = np.flatnonzero(~content)
    if len(correction) < n_patches + 2:
        raise ConfigError(
            f"{len(correction)} content-free coordinates, {n_patches + 2} needed for "
            f"the embedding correction; shrink the patch or grow D")
    return EmbeddingLayout(content_rows=np.flatnonzero(content),
                           correction_rows=correction,
                           e_pinv=np.ascontiguousarray(reads.T) / 0.5,
                           pixel_groups=reads.argmax(axis=0))


def craft_backbone(cfg: CraftConfig, model_cfg: ModelConfig) -> FrozenBackbone:
    """Frozen backbone realizing near-identity propagation of the embeddings.

    The backbone is the one record of the embedding layout: the attack reads
    it back with ``embedding_layout(backbone.embed, ...)``.
    """
    d, d_h, L = model_cfg.D, model_cfg.D_h, model_cfg.L
    rng = Rng(cfg.seed)
    pos = craft_position_encodings(cfg, model_cfg.N, d, d_h, rng.spawn(1))
    e = craft_embedding_matrix(cfg, model_cfg)

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
    return FrozenBackbone(
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


def interleaved_quantiles(k: int, rounds: int) -> np.ndarray:
    """(R, k) quantile levels: row rho holds (j * R - rho) / (k * R + 1), j = 1..k.

    The union over rounds is the full (k * R + 1)-quantile grid, so every
    round refines the coverage with a shifted, equally spaced subgrid.
    """
    j = np.arange(1, k + 1)
    return (j * rounds - np.arange(rounds)[:, None]) / (k * rounds + 1.0)


def build_attack_plan(stats: PatchStats, model_cfg: ModelConfig,
                      positions: list[int], adapters_per_position: int,
                      rounds: int) -> AttackPlan:
    """Assign adapters to target positions and lay the threshold grids.

    ``SetupArgs`` has checked that the positions and adapters fit the model.
    """
    s_t = adapters_per_position
    assignments = [Assignment(adapter=i * s_t + s, position=t, slot=s)
                   for i, t in enumerate(positions) for s in range(s_t)]
    levels = interleaved_quantiles(s_t * model_cfg.r, rounds)
    thresholds = {t: inverse_normal_cdf(levels, *stats.for_position(t)) for t in positions}
    return AttackPlan(
        assignments=assignments,
        thresholds=thresholds,
        rounds=rounds,
        r=model_cfg.r,
        stats_sigma=stats.sigma.copy(),
    )


def gating_row(pos: np.ndarray, t: int, layout: EmbeddingLayout,
               model_cfg: ModelConfig, craft_cfg: CraftConfig) -> np.ndarray:
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
    w[layout.content_rows] = pos[t, layout.content_rows]
    free = layout.correction_rows
    others = [n for n in range(model_cfg.N + 1) if n != t]
    a_rows = [pos[t, free], np.ones(len(free))]
    rhs = [-w @ pos[t], -w.sum()]
    for n in others:
        a_rows.append(pos[n, free])
        rhs.append(blocking - w @ pos[n])
    a = np.stack(a_rows)
    gram = a @ a.T
    try:
        coef = np.linalg.solve(gram, np.asarray(rhs))
    except np.linalg.LinAlgError as exc:
        raise ConfigError("degenerate encoding geometry for gating row") from exc
    w[free] = a.T @ coef
    return w


def _probe_batch(plan: AttackPlan, layout: EmbeddingLayout, pos: np.ndarray, t: int,
                 model_cfg: ModelConfig) -> Batch:
    """Synthetic images placing one probe patch at position t per threshold of
    every round, round-major: image rho * k_t + q probes round rho's grid[q]."""
    epc = pos[t, layout.content_rows]
    levels = plan.thresholds[t].ravel()
    patches = np.zeros((len(levels), model_cfg.N, model_cfg.patch_dim))
    # content x with statistic exactly c: x = c / (0.5 ||epc||^2) * epc,
    # spread over the pixels each content row reads
    x = (levels / (0.5 * (epc @ epc)))[:, None] * epc
    patches[:, t - 1] = x[:, layout.pixel_groups]
    images = unpatchify(patches, model_cfg.P, model_cfg.C, model_cfg.H, model_cfg.W)
    return Batch(images, np.zeros(len(levels), dtype=np.int64))


_DOWN_SCALE = 1e-6  # common factor of the crafted down-projection rows and biases


def craft_adapters(plan: AttackPlan, backbone: FrozenBackbone,
                   craft_cfg: CraftConfig, model_cfg: ModelConfig
                   ) -> tuple[AdapterSet, ...]:
    """Adapter parameters for every attack round, one set per round.

    The rounds differ only in their down-projection biases. These are
    probe-calibrated: for each planned threshold the server runs a
    zero-content token set with the statistic pinned at that threshold
    through its own backbone and negates the observed pre-activation, so
    the relu boundary sits exactly at the threshold in statistic space.
    Each position runs one probe forward, over every round's thresholds,
    and only through the deepest adapter assigned to it; no later sublayer
    is read. Neuron j of the adapter in slot s takes its round-rho bias
    from probe image rho * k_t + s * r + j. The up-projection leaks every
    neuron's activation into output coordinate 0 at epsilon magnitude,
    giving all r neurons a gradient path while perturbing propagation
    below every tolerance in play.

    Weight rows and biases carry a common factor ``_DOWN_SCALE``. Gating signs
    and the recovery ratio are invariant to it, but it shrinks the neuron
    activations and with them the up-projection's own gradient, so multi-
    epoch local training cannot rewrite the leak row that the
    pair-difference trick needs to stay uniform across neurons.
    """
    sets = tuple(AdapterSet.zeros(model_cfg) for _ in range(plan.rounds))
    no_adapters = AdapterSet.zeros(model_cfg)
    layout = embedding_layout(backbone.embed, model_cfg.N)
    r = model_cfg.r
    for t in plan.positions():
        row = gating_row(backbone.pos, t, layout, model_cfg, craft_cfg)
        assigned = plan.adapters_for(t)
        k_t = len(assigned) * r
        probe = _probe_batch(plan, layout, backbone.pos, t, model_cfg)
        _, _, cache = forward(probe, backbone, no_adapters, model_cfg,
                              max(a.adapter for a in assigned))
        for assign in assigned:
            a = assign.adapter
            inputs = cache.adapter_input(a)  # (R * k_t, N+1, D)
            for rho, adapters in enumerate(sets):
                adapters.w_down[a] = _DOWN_SCALE * row
                for j in range(r):
                    q = rho * k_t + assign.slot * r + j
                    adapters.b_down[a, j] = -_DOWN_SCALE * float(row @ inputs[q, t])
    for adapters in sets:
        adapters.w_up[:, 0, :] = craft_cfg.epsilon_up
    return sets


def plan_to_json(plan: AttackPlan) -> str:
    payload = {
        "assignments": [[a.adapter, a.position, a.slot] for a in plan.assignments],
        "thresholds": {str(t): g.tolist() for t, g in plan.thresholds.items()},
        "rounds": plan.rounds,
        "r": plan.r,
        "stats_sigma": plan.stats_sigma.tolist(),
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _json_int(v) -> int:
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _json_floats(v, ndim: int) -> np.ndarray:
    """A nested JSON list of numbers as a float64 array of ``ndim``
    dimensions; empty lists pass whatever their kind."""
    a = np.asarray(v)
    if a.ndim != ndim or (a.size and a.dtype.kind not in "if"):
        raise TypeError(f"expected a {ndim}-d array of numbers, got {v!r:.60}")
    return a.astype(np.float64)


def plan_from_json(text: str | bytes) -> AttackPlan:
    """The plan ``plan_to_json`` wrote (UTF-8 if bytes); FormatError for any
    malformed input.

    Keys the plan does not have are ignored, so plans written by earlier
    versions, which carried more keys (among them the embedding layout, now
    read from the backbone), still load. Every position must have both a
    grid and assignments, its slots must be 0..n-1, its grid rows finite
    and strictly increasing, and adapter indices must be distinct and
    non-negative: ``AttackPlan.bins`` reads the layout from them.
    """
    try:
        obj = json.loads(text)
        plan = AttackPlan(
            assignments=[Assignment(*map(_json_int, row)) for row in obj["assignments"]],
            thresholds={int(t): _json_floats(g, 2)
                        for t, g in obj["thresholds"].items()},
            rounds=_json_int(obj["rounds"]),
            r=_json_int(obj["r"]),
            stats_sigma=_json_floats(obj["stats_sigma"], 1),
        )
        if {a.position for a in plan.assignments} != set(plan.thresholds):
            raise ValueError("assigned positions and threshold grids differ")
        adapters = [a.adapter for a in plan.assignments]
        if min(adapters) < 0 or len(set(adapters)) < len(adapters):
            raise ValueError(f"adapter indices {adapters} are negative or repeated")
        for t, g in plan.thresholds.items():
            slots = [a.slot for a in plan.adapters_for(t)]
            if slots != list(range(len(slots))) or g.shape != (plan.rounds, len(slots) * plan.r):
                raise ValueError(f"position {t}'s slots {slots} are not 0..n-1 or its "
                                 f"grid is not rounds x (n * r)")
            if not (np.isfinite(g).all() and np.all(np.diff(g, axis=1) > 0)):
                raise ValueError(f"position {t}'s thresholds are not finite and "
                                 f"strictly increasing in every round")
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise FormatError(f"malformed attack plan: {exc!r}") from None
    return plan
