"""Command-line surface: craft, run, attack, sweep, gradcheck, report.

Experiment configs are sectioned key=value files. Every field, and whether
the plan fits the model (``SetupArgs``), is checked as the config loads,
before anything is drawn; so is ``PEFTLEAK_THREADS`` for ``gradcheck``. The
one config error a draw must show is the position encodings' margin,
given up on after 1,000 draws. The fully resolved config is echoed next to
the outputs so a run can be replayed byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import attack as attack_mod
from .craft import CraftConfig, embedding_layout, plan_from_json, plan_to_json
from .dataio import denormalize, load_ppm, save_ppm, synth_batch
from .errors import ConfigError, FormatError
from .flsim import (DefenseConfig, FLConfig, SetupArgs, config_hash,
                    prepare_attack, prepare_attacks, run_experiment)
from .grad import FD_FLOOR, FD_TOLERANCE, finite_diff_check, thread_count
from .metrics import fmt, write_csv, write_json
from .model import AdapterSet, ModelConfig, random_backbone, unpatchify
from .numerics import Rng
from .serialize import (read_backbone, read_gradients, write_adapters,
                        write_backbone, write_gradients)

# Sections that fill one config dataclass each, converted by its field types.
_DATACLASSES = {"model": ModelConfig, "craft": CraftConfig, "fl": FLConfig,
                "defense": DefenseConfig}


def _text_defaults(cls) -> dict[str, str]:
    return {f.name: str(f.default) for f in fields(cls)}


# Every default but [plan]'s is a config dataclass's field default ([data]'s
# are SetupArgs'). resolved.cfg echoes the sections in this order.
_DEFAULTS = {
    "model": _text_defaults(ModelConfig), "craft": _text_defaults(CraftConfig),
    "fl": _text_defaults(FLConfig),
    "plan": {"positions": "all", "adapters_per_position": "3"},
    "defense": _text_defaults(DefenseConfig),
    "data": {"kind": SetupArgs.data_kind, "public_count": str(SetupArgs.public_count)},
}


def _convert(section: str, key: str, text: str, kind: type):
    """``text`` as ``kind`` (int, finite float or str), else ConfigError."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {text!r} is not a valid "
                          f"{kind.__name__}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {text!r} is not finite")
    return value


def _dataclass_from(section: str, values: dict[str, str]):
    cls = _DATACLASSES[section]
    types = get_type_hints(cls)
    return cls(**{key: _convert(section, key, text, types[key])
                  for key, text in values.items()})


@dataclass
class ExperimentConfig:
    setup: SetupArgs
    fl: FLConfig
    defense: DefenseConfig
    resolved_text: str


def load_config(path) -> ExperimentConfig:
    # values are read literally, and no header names the default section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        given = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    merged = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    for section, values in given.items():
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in values.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            merged[section][key] = value
    return _resolve(merged)


def _resolve(merged: dict) -> ExperimentConfig:
    model, craft, fl, defense = (_dataclass_from(section, merged[section])
                                 for section in _DATACLASSES)
    p = merged["plan"]
    if p["positions"].strip() == "all":
        positions = list(range(1, model.N + 1))
    else:
        positions = [_convert("plan", "positions", x, int)
                     for x in p["positions"].split(",") if x.strip()]
    data = merged["data"]
    setup = SetupArgs(model, craft, fl.seed, fl.rounds, positions,
                      _convert("plan", "adapters_per_position",
                               p["adapters_per_position"], int),
                      data["kind"], _convert("data", "public_count", data["public_count"], int))

    sections = (f"[{section}]\n" + "".join(f"{key} = {values[key]}\n" for key in sorted(values))
                for section, values in merged.items())
    return ExperimentConfig(setup, fl, defense, "\n".join(sections))


def _prepare_out(out: str, cfg: ExperimentConfig) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.cfg").write_text(cfg.resolved_text)
    return out_dir


def cmd_craft(args) -> int:
    cfg = load_config(args.config)
    setup = prepare_attack(cfg.setup)
    out = _prepare_out(args.out, cfg)
    write_backbone(setup.backbone, out / "backbone.plta")
    (out / "plan.json").write_text(plan_to_json(setup.plan))
    for rho, adapters in enumerate(setup.adapters):
        write_adapters(adapters, out / f"adapters_round{rho}.plta")
    print(f"crafted backbone, plan, and {cfg.fl.rounds} adapter round(s) -> {out}")
    return 0


def _emit_run_outputs(out: Path, cfg: ExperimentConfig, result) -> None:
    rows = [[rho, t, sum(p.position == t for p in log.report.patches),
             sum(p.position == t for p in log.report.valid_patches),
             log.coverage, log.mean_mse]
            for rho, log in enumerate(result.round_logs)
            for t in result.plan.positions()]
    write_csv(out / "rounds.csv",
              ["round", "position", "bins_active", "patches_valid",
               "coverage", "mean_mse"], rows)
    summary = {
        "config_hash": config_hash(cfg.resolved_text),
        "rounds": [
            {"round": rho, "hits": len(log.report.patches),
             "valid": len(log.report.valid_patches),
             "coverage": log.coverage, "mean_mse": log.mean_mse}
            for rho, log in enumerate(result.round_logs)
        ],
        "coverage": result.merged.coverage,
        "matched_patches": int(result.found.sum()),
        "oracle_isolated_union": result.oracle_count_union,
        "mean_mse": result.score.mean_mse,
        "mean_ssim": result.score.mean_ssim,
        "recovery_rate": result.score.recovery_rate,
        # measured wall time is printed, not written: output bytes are a
        # pure function of config + seed
        "runtime_s": None,
    }
    write_json(out / "summary.json", summary)
    mc = cfg.setup.model
    recovered = unpatchify(np.clip(result.placed, -1, 1), mc.P, mc.C, mc.H, mc.W)
    for i, (truth, rec) in enumerate(zip(result.victim_batch.images, recovered)):
        save_ppm(denormalize(truth), out / f"truth_{i:03d}.ppm")
        save_ppm(denormalize(rec), out / f"recovered_{i:03d}.ppm")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    result = run_experiment(prepare_attack(cfg.setup), cfg.fl, cfg.defense)
    out = _prepare_out(args.out, cfg)
    _emit_run_outputs(out, cfg, result)
    # every round's victim observation, round-major on the adapter axis, and
    # the attacker artifacts, so the attack subcommand can replay the run
    rounds = zip(*(g.tensors().values() for g in result.victim_grads))
    write_gradients(AdapterSet(*map(np.concatenate, rounds)), cfg.fl.batch_size,
                    out / "grads.plta")
    write_backbone(result.backbone, out / "backbone.plta")
    (out / "plan.json").write_text(plan_to_json(result.plan))
    runtime = time.perf_counter() - t0
    print(f"run complete in {runtime:.2f}s: coverage {result.merged.coverage:.3f}, "
          f"matched {int(result.found.sum())}, mean MSE {result.score.mean_mse:.4f} -> {out}")
    return 0


def cmd_attack(args) -> int:
    grads, m = read_gradients(args.grads)
    plan = plan_from_json(Path(args.plan).read_bytes())
    if args.round is not None and not 0 <= args.round < plan.rounds:
        raise ConfigError(f"--round {args.round} outside the plan's rounds "
                          f"0..{plan.rounds - 1}")
    backbone = read_backbone(args.backbone)
    if backbone.pos.ndim != 2:
        raise ConfigError(f"backbone position encodings have shape {backbone.pos.shape}, "
                          "but need (N + 1, D)")
    a = 2 * len(backbone.encoders)  # adapters per round: one per sublayer
    if len(grads) != plan.rounds * a:
        raise ConfigError(f"gradient archive holds {len(grads)} adapters, but {plan.rounds} "
                          f"round(s) of the backbone's {a} adapters need {plan.rounds * a}")
    rounds = [AdapterSet(*(t[rho * a:(rho + 1) * a] for t in grads.tensors().values()))
              for rho in range(plan.rounds)]
    have = rounds[0].w_down.shape  # the same in every round
    need = (1 + max(row.adapter for row in plan.assignments), plan.r, backbone.pos.shape[1])
    if have[0] < need[0] or have[1:] != need[1:]:
        raise ConfigError(f"gradient archive has (A, r, D) = {have}, but the plan and "
                          f"backbone need ({need[0]} or more, {need[1]}, {need[2]})")
    if not all(1 <= t < len(backbone.pos) for t in plan.positions()):
        raise ConfigError(f"plan positions {plan.positions()} exceed the backbone's "
                          f"{len(backbone.pos) - 1} patches")
    if backbone.embed.ndim != 2 or len(backbone.embed) != need[2]:
        raise ConfigError(f"backbone embedding has shape {backbone.embed.shape}, but its "
                          f"position encodings need (D, patch_dim) with D = {need[2]}")
    embedding_layout(backbone.embed, len(backbone.pos) - 1)  # ConfigError unless crafted
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = [attack_mod.run_attack(rounds[rho], plan, backbone, rho, m)
               for rho in (range(plan.rounds) if args.round is None else [args.round])]
    merged = attack_mod.merge_rounds(reports, plan)
    rows = [[p.position, p.bin_index, p.round_idx, int(p.valid), p.stat_check]
            for p in merged.patches]
    write_csv(out / "patches.csv",
              ["position", "bin_index", "round", "valid", "stat_check"], rows)
    write_json(out / "attack_summary.json", {
        "patches_total": len(merged.patches),
        "patches_valid": len(merged.valid_patches),
        "coverage": merged.coverage,
    })
    print(f"attack recovered {len(merged.valid_patches)} valid patches "
          f"(coverage {merged.coverage:.3f}) -> {out}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    workers = thread_count()  # PEFTLEAK_THREADS is read here, before any draw
    mc = cfg.setup.model
    rng = Rng(cfg.setup.craft.seed)
    backbone = random_backbone(mc, rng.spawn(1))
    adapters = AdapterSet.random(mc, rng.spawn(2), scale=0.2)
    batch = synth_batch(cfg.fl.batch_size, mc, seed=cfg.fl.seed, kind="uniform")
    report = finite_diff_check(backbone, adapters, batch, mc, workers=workers)
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max rel err {fmt(report.max_rel_err)} "
          f"(tolerance {fmt(FD_TOLERANCE)}, floor {fmt(FD_FLOOR)}) "
          f"over {report.n_params} parameters ({report.n_unmoved} unmoved) "
          f"in {report.runtime_s:.1f}s; worst at {report.worst_param}")
    return 0 if report.passed else 3


def _sweep_values(kind: str, raw: str):
    kind_type = float if kind == "noise" else int
    return [_convert("sweep", kind, v.strip(), kind_type)
            for v in raw.split(",") if v.strip()]


def _sweep_cell(cfg: ExperimentConfig, kind: str, value, seed: int):
    """One cell's experiment: its setup inputs, FL config and defense."""
    setup_args, fl, defense = cfg.setup, cfg.fl, cfg.defense
    if kind == "batch":
        fl = replace(fl, batch_size=value)
    elif kind == "r":
        setup_args = replace(setup_args, model=replace(setup_args.model, r=value))
    elif kind == "layers":
        setup_args = replace(setup_args, adapters_per_position=value)
    elif kind == "rounds":
        fl = replace(fl, rounds=value)
    else:  # noise
        defense = replace(defense, kind="gaussian_noise", noise_rel_sigma=value)
    fl = replace(fl, seed=seed)
    return replace(setup_args, seed=fl.seed, rounds=fl.rounds), fl, defense


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = load_config(args.config)
    values = _sweep_values(args.vary, args.values)
    if not values:
        raise ConfigError(f"--values {args.values!r} names no value")
    seeds = [cfg.fl.seed + 1000 * i for i in range(args.seeds)]
    cells = [(v, s) for v in values for s in seeds]
    experiments = [_sweep_cell(cfg, args.vary, v, s) for v, s in cells]
    # cells with equal setup inputs share one setup, built once and only read
    distinct = list(dict.fromkeys(setup_args for setup_args, _, _ in experiments))
    setups = prepare_attacks(distinct)
    # cells with equal setup inputs and FL config differ only in their
    # defense: the first observes the victim, the others reuse it
    observed, scores = {}, {}
    for cell, (setup_args, fl, defense) in zip(cells, experiments):
        result = run_experiment(setups[setup_args], fl, defense,
                                observed.get((setup_args, fl)))
        observed.setdefault((setup_args, fl), result.observation)
        scores[cell] = result.score

    rows = []
    for v in values:
        rates = [scores[v, s].recovery_rate for s in seeds]
        mses = [scores[v, s].mean_mse for s in seeds]
        ssims = [scores[v, s].mean_ssim for s in seeds]
        rows.append([args.vary, v, float(np.mean(rates)), float(np.mean(mses)),
                     float(np.mean(ssims))])
    out = _prepare_out(args.out, cfg)
    write_csv(out / "sweep.csv",
              ["sweep_name", "x_value", "recovery_rate", "mean_mse", "mean_ssim"],
              rows)
    print(f"sweep over {args.vary} ({len(values)} values x {len(seeds)} seeds) -> {out}")
    return 0


def cmd_report(args) -> int:
    src = Path(args.indir)
    summary_path = src / "summary.json"
    if not summary_path.exists():
        raise ConfigError(f"no summary.json under {src}")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise FormatError(f"{summary_path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise FormatError(f"{summary_path} holds no JSON object")
    rows, size = [], None  # truth_i | recovered_i by index i, all of one size
    for i in sorted({p.name.split("_", 1)[1] for p in src.glob("*_*.ppm")
                     if p.name.startswith(("truth_", "recovered_"))}):
        pair = (src / f"truth_{i}", src / f"recovered_{i}")
        images = [load_ppm(p) for p in pair if p.exists()]
        size = size or images[0].shape
        if len(images) < 2 or not images[0].shape == images[1].shape == size:
            raise FormatError(f"{pair[0]} and {pair[1]} are not a pair of "
                              f"{size[2]}x{size[1]} images")
        rows.append(np.concatenate(images, axis=2))
    print("run summary")
    for key in ("config_hash", "coverage", "matched_patches",
                "oracle_isolated_union", "mean_mse", "mean_ssim",
                "recovery_rate"):
        print(f"  {key}: {summary.get(key)}")
    if rows:
        save_ppm(np.concatenate(rows, axis=1), src / "mosaic.ppm")
        print(f"  mosaic (truth | recovered): {src / 'mosaic.ppm'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adapterleak",
        description="Desk-scale federated adapter fine-tuning and gradient "
                    "inversion laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("craft", help="craft backbone, plan, and adapter rounds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_craft)

    p = sub.add_parser("run", help="run the full federated attack pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("attack", help="reconstruct from serialized gradients")
    p.add_argument("--grads", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--backbone", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--round", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("gradcheck", help="verify adapter gradients against "
                                         "central finite differences")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="sweep one knob over values x seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--vary", required=True,
                   choices=["batch", "r", "layers", "rounds", "noise"])
    p.add_argument("--values", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def libc_mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_heap() -> None:
    """Keep freed heap pages in the process instead of returning them.

    By default glibc gives large blocks their own mmap and trims the top of
    the heap once 128 KiB lie free there, so each forward pass faults its
    tens of MB of caches back in from the kernel. Raising the mmap threshold
    to its 64-bit maximum (32 MiB) and the trim threshold far above the
    working set lets later operations reuse those pages. It is process-wide
    allocator policy, so only the program entry point calls it, never an
    import. Where libc has no ``mallopt`` it does nothing.
    """
    mallopt = libc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keep_freed_heap()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
