"""Federated loop: local gradient computation, defenses, aggregation, attack.

The server crafts adapters per round and attacks the victim's individual
pre-aggregation gradient, so only the victim's local training and defense
are simulated. The other users would only feed the aggregate, which the
attack never reads: ``FLConfig.users`` sets just the victim's defense-stream
key (``rho * users + victim_index``) and the range of ``victim_index``; the
victim's batch always comes from data-stream key 1. The attack
consumes only the gradient tensors plus the plan and backbone the server
already owns: batches and forward caches never cross that boundary.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import attack as attack_mod
from . import oracle
from .craft import (AttackPlan, CraftConfig, build_attack_plan, craft_adapters,
                    craft_backbone, craft_embedding_matrix, embedding_layout)
from .dataio import Batch, synth_batch
from .errors import ConfigError
from .grad import backward_adapters
from .metrics import ScoreReport, score_reconstruction
from .model import AdapterSet, FrozenBackbone, ModelConfig, forward
from .numerics import Rng
from .stats import estimate_patch_stats


@dataclass(frozen=True)
class FLConfig:
    users: int = 2
    batch_size: int = 16
    rounds: int = 1
    local_epochs: int = 1
    learning_rate: float = 1e-4
    victim_index: int = 0
    mode: str = "single_step"
    seed: int = 11

    def __post_init__(self):
        if self.users < 1:
            raise ConfigError("need at least one user")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if not 0 <= self.victim_index < self.users:
            raise ConfigError("victim index out of range")
        if self.mode not in ("single_step", "fedavg"):
            raise ConfigError(f"unknown FL mode {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError("need at least one round")
        if self.local_epochs < 1:
            raise ConfigError("need at least one local epoch")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")


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
        # fsum rounds alike at every BLAS thread count; a BLAS dot product does not
        norm = math.sqrt(math.fsum(flat * flat))
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
    report: attack_mod.ReconstructionReport  # this round's attack alone
    coverage: float  # of the reports merged up to this round
    mean_mse: float


@dataclass
class RunResult:
    merged: attack_mod.ReconstructionReport
    round_logs: list[RoundLog]
    score: ScoreReport
    plan: AttackPlan
    backbone: FrozenBackbone
    observation: Observation
    victim_grads: list[AdapterSet]  # every round's defended gradients
    placed: np.ndarray  # (M, N, patch_dim), from oracle.place_patches
    found: np.ndarray  # (M, N) filled slots of placed
    oracle_count_union: int

    @property
    def victim_batch(self) -> Batch:
        return self.observation.batch


def _data_rng(seed: int) -> Rng:
    """Stream of every synthetic batch: public (key 0) and victim (key 1)."""
    return Rng(seed).spawn(101)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class SetupArgs:
    """Every input of the server's setup; equal args build identical setups.

    The server fixes its plan before round 0, so whether the plan fits the
    model is a property of these inputs alone: construction raises
    ConfigError for one that does not, before anything is drawn.
    """

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
        mc, positions = self.model, list(self.positions)
        if not positions:
            raise ConfigError("no target positions")
        if len(set(positions)) < len(positions):
            raise ConfigError(f"target positions {positions} repeat a position")
        if not all(1 <= t <= mc.N for t in positions):
            raise ConfigError(f"target positions {positions} outside 1..{mc.N}")
        if self.adapters_per_position < 1:
            raise ConfigError("need at least one adapter per position")
        need = self.adapters_per_position * len(positions)
        if need > mc.num_adapters:
            raise ConfigError(f"plan needs {need} adapters, model has {mc.num_adapters}")
        if self.data_kind not in ("uniform", "smooth"):
            raise ConfigError(f"unknown data kind {self.data_kind!r}")
        if self.public_count < 2:
            raise ConfigError(f"[data] public_count = {self.public_count}: "
                              "need at least 2 public images")
        # the free-row rule, on the embedding craft_backbone will build
        embedding_layout(craft_embedding_matrix(self.craft, mc), mc.N)

    def public_key(self) -> tuple:
        """Every input of the public batch: ``synth_batch`` reads only these."""
        mc = self.model
        return (self.seed, self.data_kind, self.public_count,
                mc.C, mc.H, mc.W, mc.num_classes)


@dataclass(frozen=True, eq=False)
class AttackSetup:
    """The server's side of an experiment, built before round 0.

    Experiments only read it, so sweep cells with equal ``SetupArgs`` share
    one, as setups with equal ``SetupArgs.public_key`` share their public
    batch, read-only; the cells run one after another on the calling thread.
    """

    args: SetupArgs
    backbone: FrozenBackbone
    plan: AttackPlan
    adapters: tuple[AdapterSet, ...]  # one crafted set per round


@dataclass(frozen=True, eq=False)
class Observation:
    """The victim's side of an experiment before its defense.

    It depends only on the setup and the FL config, so sweep cells that
    differ only in their defense share one. Its arrays are read-only: a
    defense that wrote into them would raise instead of changing later cells.
    """

    setup: AttackSetup
    fl: FLConfig
    batch: Batch
    stats: np.ndarray  # (M, N) true patch statistics, from the oracle
    truth: np.ndarray  # (M, N, patch_dim) true patch pixels
    grads: tuple[AdapterSet, ...]  # every round's undefended gradient


def prepare_attack(args: SetupArgs) -> AttackSetup:
    """Crafted backbone, attack plan and every round's crafted adapters.

    The plan's bin grids come from patch statistics of a public batch drawn
    from the experiment's data stream.
    """
    return prepare_attacks([args])[args]


def prepare_attacks(distinct: list[SetupArgs]) -> dict[SetupArgs, AttackSetup]:
    """``prepare_attack`` for each of ``distinct``.

    The backbone depends only on the craft and model configs and the public
    batch only on ``SetupArgs.public_key``, so each distinct one is built
    once and its setups share it, read-only.
    """
    pairs = dict.fromkeys((args.craft, args.model) for args in distinct)
    crafted = {pair: craft_backbone(*pair) for pair in pairs}
    publics = {}
    for args in distinct:
        if args.public_key() not in publics:
            public = synth_batch(args.public_count, args.model,
                                 seed=int(_data_rng(args.seed).spawn(0).seed),
                                 kind=args.data_kind)
            _read_only(public.images, public.labels)
            publics[args.public_key()] = public
    return {args: _setup_on(crafted[args.craft, args.model], args,
                            publics[args.public_key()])
            for args in distinct}


def _setup_on(backbone: FrozenBackbone, args: SetupArgs, public: Batch) -> AttackSetup:
    mc, cc = args.model, args.craft
    stats = estimate_patch_stats(public.images, backbone.embed, backbone.pos, mc)
    plan = build_attack_plan(stats, mc, args.positions, args.adapters_per_position,
                             args.rounds)
    return AttackSetup(args, backbone, plan, craft_adapters(plan, backbone, cc, mc))


def _observe(setup: AttackSetup, fl_cfg: FLConfig) -> Observation:
    """The victim's batch, its oracle truth and every round's local training."""
    model_cfg = setup.args.model
    batch = synth_batch(fl_cfg.batch_size, model_cfg,
                        seed=int(_data_rng(fl_cfg.seed).spawn(1).seed),
                        kind=setup.args.data_kind)
    stats = oracle.true_statistics(batch, setup.backbone, model_cfg)
    truth = oracle.ground_truth_patches(batch, model_cfg)
    # a single step is one-epoch FedAvg, bit for bit
    epochs = fl_cfg.local_epochs if fl_cfg.mode == "fedavg" else 1
    grads = [local_fedavg(batch, setup.backbone, adapters, model_cfg, epochs,
                          fl_cfg.learning_rate) for adapters in setup.adapters]
    _read_only(batch.images, batch.labels, stats, truth,
               *(t for g in grads for t in g.tensors().values()))
    return Observation(setup, fl_cfg, batch, stats, truth, tuple(grads))


def run_experiment(setup: AttackSetup, fl_cfg: FLConfig, defense: DefenseConfig,
                   observation: Observation | None = None) -> RunResult:
    """Full multi-round pipeline; deterministic under the configured seeds.

    The victim's side is observed here, unless ``observation``, taken from
    an earlier result of the same setup and FL config, supplies it. Either
    way the defense and the attack run on it here.
    """
    if (fl_cfg.seed, fl_cfg.rounds) != (setup.args.seed, setup.args.rounds):
        raise ConfigError("the setup was built for another FL seed or round count")
    if observation is None:
        observation = _observe(setup, fl_cfg)
    elif observation.setup is not setup or observation.fl != fl_cfg:
        raise ConfigError("the observation was made for another setup or FL config")
    model_cfg, backbone, plan = setup.args.model, setup.backbone, setup.plan
    defense_rng = Rng(fl_cfg.seed).spawn(202)

    victim_grads: list[AdapterSet] = []
    reports: list[attack_mod.ReconstructionReport] = []
    logs: list[RoundLog] = []
    for rho, g in enumerate(observation.grads):
        # the defense stream is keyed by round and user, as if every user ran
        key = rho * fl_cfg.users + fl_cfg.victim_index
        victim_grads.append(apply_defense(g, defense, defense_rng.spawn(key)))
        # the attack reads the victim's share alone; aggregating that one
        # share keeps the protocol's aggregation step, which perfbench's
        # traced runs require to be called
        aggregate(victim_grads[-1:])
        reports.append(attack_mod.run_attack(victim_grads[-1], plan, backbone, rho,
                                             fl_cfg.batch_size))
        merged = attack_mod.merge_rounds(reports, plan)
        placed, found = oracle.place_patches(merged, observation.stats,
                                             model_cfg.patch_dim)
        score = score_reconstruction(placed, found, observation.truth,
                                     model_cfg.P, model_cfg.C)
        logs.append(RoundLog(reports[-1], merged.coverage, score.mean_mse))

    return RunResult(
        merged=merged,
        round_logs=logs,
        score=score,
        plan=plan,
        backbone=backbone,
        observation=observation,
        victim_grads=victim_grads,
        placed=placed,
        found=found,
        oracle_count_union=oracle.isolated_union(observation.stats, plan),
    )


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
