"""Where each layer is wrapped, what each workload must call, and the
per-layer metrics derived from the recorded spans."""

from __future__ import annotations

import os
import statistics

from spans import Tracer


def _rows(args, kwargs, result):
    batch, cfg = args[0], args[3]
    return {"rows": batch.size * (cfg.N + 1)}


def _images(args, kwargs, result):
    return {"images": result.size}


def _batch_id(args, kwargs, result):
    return {"batch": id(args[0])}


def _victim_id(args, kwargs, result):
    return {"victim": id(result.victim_batch)}


def _valid(args, kwargs, result):
    return {"valid": int(bool(result))}


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[-1])}


def _read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (calling module, name looked up there, span name, on_exit hook, rusage)
SITES = [
    ("cli", "cmd_gradcheck", "cli.gradcheck", None, False),
    ("cli", "cmd_sweep", "cli.sweep", None, True),
    ("cli", "cmd_run", "cli.run", None, False),
    ("cli", "cmd_attack", "cli.attack", None, False),
    ("cli", "finite_diff_check", "grad.fd", None, True),
    ("grad", "normal_cdf", "grad.fd.normal_cdf", None, False),
    ("grad", "cross_entropy", "grad.fd.cross_entropy", None, False),
    ("grad", "forward", "model.forward.fd", _rows, False),
    ("grad", "backward_adapters", "grad.backward_adapters", None, False),
    ("flsim", "backward_adapters", "grad.backward_adapters", None, False),
    ("flsim", "forward", "model.forward.local", _rows, False),
    ("craft", "forward", "model.forward.probe", _rows, False),
    ("cli", "synth_batch", "dataio.synth_batch", _images, False),
    ("flsim", "synth_batch", "dataio.synth_batch", _images, False),
    ("cli", "save_ppm", "dataio.save_ppm", None, False),
    ("cli", "run_experiment", "flsim.run_experiment", _victim_id, False),
    ("flsim", "local_step", "flsim.local_step", _batch_id, False),
    ("flsim", "apply_defense", "flsim.apply_defense", None, False),
    ("flsim", "aggregate", "flsim.aggregate", None, False),
    ("flsim", "craft_backbone", "craft.craft_backbone", None, False),
    ("flsim", "craft_adapters", "craft.craft_adapters", None, False),
    ("flsim", "build_attack_plan", "craft.build_attack_plan", None, False),
    ("cli", "plan_to_json", "craft.plan_json", None, False),
    ("cli", "plan_from_json", "craft.plan_json", None, False),
    ("flsim", "estimate_patch_stats", "stats.estimate_patch_stats", None, False),
    ("attack", "detect_active_bins", "attack.detect", None, False),
    ("attack", "recover_embedding", "attack.recover", None, False),
    ("attack", "correct_embedding", "attack.recover", None, False),
    ("attack", "recover_patch", "attack.recover", None, False),
    ("attack", "validate", "attack.validate", _valid, False),
    ("attack", "merge_rounds", "attack.merge", None, False),
    ("oracle", "match_patches", "oracle.match_patches", None, False),
    ("oracle", "isolated_union", "oracle.isolated_union", None, False),
    ("flsim", "score_reconstruction", "metrics.score_reconstruction", None, False),
    ("cli", "write_gradients", "serialize.write", _written, False),
    ("cli", "write_backbone", "serialize.write", _written, False),
    ("cli", "read_gradients", "serialize.read", _read, False),
    ("cli", "read_backbone", "serialize.read", _read, False),
]

_EXPERIMENT = [
    "flsim.run_experiment", "flsim.local_step", "flsim.apply_defense",
    "flsim.aggregate", "model.forward.local", "model.forward.probe",
    "grad.backward_adapters", "dataio.synth_batch", "craft.craft_backbone",
    "craft.craft_adapters", "craft.build_attack_plan",
    "stats.estimate_patch_stats", "attack.detect", "attack.recover",
    "attack.validate", "oracle.match_patches", "oracle.isolated_union",
    "metrics.score_reconstruction",
]
_FD = ["grad.fd", "grad.fd.normal_cdf", "grad.fd.cross_entropy", "model.forward.fd"]
_CRAFT_ATTACK = ["craft.craft_backbone", "craft.craft_adapters",
                 "craft.build_attack_plan", "craft.plan_json", "model.forward.probe",
                 "attack.detect", "attack.recover", "attack.validate", "attack.merge"]

# Spans each workload must record at least once (a zero means a wrapper sits
# at the wrong import site), and spans it must never record.
MUST_CALL = {
    "gradcheck": ["cli.gradcheck", *_FD, "grad.backward_adapters", "dataio.synth_batch"],
    "sweep": ["cli.sweep", *_EXPERIMENT],
    "rounds": ["cli.run", "cli.attack", *_EXPERIMENT, "attack.merge",
               "craft.plan_json", "serialize.write", "serialize.read",
               "dataio.save_ppm"],
}
MUST_NOT_CALL = {
    "gradcheck": [*_CRAFT_ATTACK, "flsim.run_experiment", "flsim.local_step"],
    "sweep": _FD,
    "rounds": _FD,
}


def install(tracer: Tracer) -> None:
    from adapterleak import (attack, cli, craft, flsim, grad,  # noqa: F401
                             oracle)
    modules = {"attack": attack, "cli": cli, "craft": craft, "flsim": flsim,
               "grad": grad, "oracle": oracle}
    for mod, attr, name, hook, rusage in SITES:
        tracer.install(modules[mod], attr, name, hook, rusage)


def self_test(tracer: Tracer, workload: str) -> list[str]:
    """Wrapper errors: required layers never called, forbidden ones called,
    and the gradcheck's one ``synth_batch`` per operation."""
    errors = [f"{n}: 0 calls on {workload}" for n in MUST_CALL[workload]
              if tracer.count(n) == 0]
    errors += [f"{n}: {tracer.count(n)} calls on {workload}, expected none"
               for n in MUST_NOT_CALL[workload] if tracer.count(n)]
    ops = tracer.count("cli.gradcheck")
    if workload == "gradcheck" and tracer.count("dataio.synth_batch") != ops:
        errors.append(f"dataio.synth_batch: {tracer.count('dataio.synth_batch')} "
                      f"calls for {ops} gradcheck operations")
    return errors


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values from the spans; ``*.s`` and ``*_busy_s`` sum wall time
    inside the wrapped calls over every thread that made them."""
    fd = tr.named("grad.fd")
    fd_kids = ("grad.fd.normal_cdf", "grad.fd.cross_entropy")

    local = tr.named("flsim.local_step")
    victim_of = {s.sid: s.attrs.get("victim") for s in tr.named("flsim.run_experiment")}
    victim_calls = sum(1 for s in local if victim_of.get(s.parent) == s.attrs["batch"])

    sweeps = {s.sid for s in tr.named("cli.sweep")}
    cells = [s.duration for s in tr.named("flsim.run_experiment") if s.parent in sweeps]
    cell_threads = {s.thread for s in tr.named("flsim.run_experiment") if s.parent in sweeps}

    forwards = ("model.forward.fd", "model.forward.local", "model.forward.probe")
    candidates = tr.count("attack.validate")
    valid = tr.attr_sum("attack.validate", "valid")
    return {
        "grad.fd.s": tr.total("grad.fd"),
        "grad.fd.self_s": sum(tr.self_time(s) for s in fd),
        "grad.fd.normal_cdf_busy_s": tr.total("grad.fd.normal_cdf"),
        "grad.fd.cross_entropy_busy_s": tr.total("grad.fd.cross_entropy"),
        "grad.fd.stacks": tr.count("grad.fd.cross_entropy"),
        "grad.fd.threads_seen": tr.threads(fd_kids),
        "grad.fd.cpu_s": tr.attr_sum("grad.fd", "cpu_s"),
        "grad.fd.nivcsw": tr.attr_sum("grad.fd", "nivcsw"),
        "grad.backward_adapters.s": tr.total("grad.backward_adapters"),
        "grad.backward_adapters.calls": tr.count("grad.backward_adapters"),
        "model.forward.local_s": tr.total("model.forward.local"),
        "model.forward.probe_s": tr.total("model.forward.probe"),
        "model.forward.rows": sum(tr.attr_sum(n, "rows") for n in forwards),
        "dataio.synth_batch.s": tr.total("dataio.synth_batch"),
        "dataio.synth_batch.calls": tr.count("dataio.synth_batch"),
        "dataio.synth_batch.images": tr.attr_sum("dataio.synth_batch", "images"),
        "dataio.save_ppm.s": tr.total("dataio.save_ppm"),
        "flsim.run_experiment.self_s": sum(tr.self_time(s)
                                           for s in tr.named("flsim.run_experiment")),
        "flsim.local_step.s": tr.total("flsim.local_step"),
        "flsim.local_step.calls": len(local),
        "flsim.local_step.useful_ratio": _ratio(victim_calls, len(local)),
        "flsim.apply_defense.s": tr.total("flsim.apply_defense"),
        "flsim.aggregate.s": tr.total("flsim.aggregate"),
        "craft.craft_backbone.s": tr.total("craft.craft_backbone"),
        "craft.craft_adapters.s": tr.total("craft.craft_adapters"),
        "craft.craft_adapters.calls": tr.count("craft.craft_adapters"),
        "craft.build_attack_plan.s": tr.total("craft.build_attack_plan"),
        "craft.plan_json.s": tr.total("craft.plan_json"),
        "stats.estimate_patch_stats.s": tr.total("stats.estimate_patch_stats"),
        "attack.detect.s": tr.total("attack.detect"),
        "attack.recover.s": tr.total("attack.recover"),
        "attack.validate.s": tr.total("attack.validate"),
        "attack.merge.s": tr.total("attack.merge"),
        "attack.candidates": candidates,
        "attack.valid": valid,
        "attack.valid_ratio": _ratio(valid, candidates),
        "oracle.match_patches.s": tr.total("oracle.match_patches"),
        "oracle.isolated_union.s": tr.total("oracle.isolated_union"),
        "metrics.score_reconstruction.s": tr.total("metrics.score_reconstruction"),
        "metrics.score_reconstruction.calls": tr.count("metrics.score_reconstruction"),
        "serialize.write.s": tr.total("serialize.write"),
        "serialize.read.s": tr.total("serialize.read"),
        "serialize.bytes": (tr.attr_sum("serialize.write", "bytes")
                            + tr.attr_sum("serialize.read", "bytes")),
        "cli.sweep.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "cli.sweep.threads_seen": len(cell_threads),
        "cli.sweep.cpu_s": tr.attr_sum("cli.sweep", "cpu_s"),
        "cli.sweep.nivcsw": tr.attr_sum("cli.sweep", "nivcsw"),
    }
