"""The three workloads: config files made from the seed, a closed loop of
CLI operations from one client, and the checks on every operation's output.

An operation fails if it exits non-zero, if a gradcheck reports FAIL, or if
its output bytes differ from an earlier operation of this run with the same
seed (the criterion 9 invariant). Every workload repeats at least one
operation so that there is something to compare. Known defects in the
reported numbers are counted, never treated as failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import statistics
import time
import traceback
from pathlib import Path

import layers
from spans import Tracer

# Desk experiment (configs/desk.cfg), embedded so the workload does not change
# when the repository's example config does.
DESK = {
    "model": {"D": "96", "L": "4", "num_encoders": "6", "P": "4", "C": "3",
              "H": "8", "W": "8", "r": "8", "num_classes": "10"},
    "craft": {"sigma_pos": "10.0", "gamma": "1e4", "epsilon_up": "1e-6",
              "margin": "50.0", "seed": "7"},
    "fl": {"users": "2", "batch_size": "16", "rounds": "1", "seed": "11"},
    "plan": {"positions": "all", "adapters_per_position": "3"},
    "data": {"kind": "smooth"},
}

# gradcheck: the desk backbone with GELU adapters (the CLI switches them on),
# all 19,680 adapter parameters, tolerance 1e-6, on a batch of 4 instead of
# the desk 16 so that one operation fits the benchmark's time budget. The
# timed checks keep the desk craft seed: it fixes the backbone, whose live
# GELU units set the FD cost. The workload seed picks the batch, and the
# backbone of one untimed check on a single image, whose verdict is reported
# as a known defect rather than a failure (some backbones exceed 1e-6).
GRADCHECK_BATCH = 4
GRADCHECK_MIN_OPS = 2  # the reported time is the median of at least two
SEED_BACKBONE_BATCH = 1
SWEEPS = [  # (config, --vary, --values); every sweep runs --seeds 5
    ("desk", "batch", "4,8,16,32"),
    ("desk", "r", "2,4,8,16"),
    ("desk", "noise", "0,0.01,0.1,1"),
    ("pos1", "layers", "1,2,3,4,5"),
]
SWEEP_SEEDS = 5
ROUNDS = 4
ATTACK_SAMPLES_MIN = 100  # enough for ten samples beyond the p90


def fl_seed(seed: int) -> int:
    return 11 + 100_003 * seed


def craft_seed(seed: int) -> int:
    return 7 + seed


def config_text(**overrides: dict[str, str]) -> str:
    lines = []
    for section, values in DESK.items():
        lines.append(f"[{section}]")
        for key, value in {**values, **overrides.get(section, {})}.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def write_configs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    fl = {"seed": str(fl_seed(seed))}
    if workload == "gradcheck":
        texts = {"gradcheck": config_text(fl={**fl, "batch_size": str(GRADCHECK_BATCH)}),
                 "seed_backbone": config_text(
                     fl={**fl, "batch_size": str(SEED_BACKBONE_BATCH)},
                     craft={"seed": str(craft_seed(seed))})}
    elif workload == "sweep":
        texts = {"desk": config_text(fl=fl),
                 "pos1": config_text(fl=fl, plan={"positions": "1"})}
    elif workload == "rounds":
        texts = {"rounds": config_text(
            model={"r": "4"},
            fl={**fl, "rounds": str(ROUNDS), "users": "4", "mode": "fedavg",
                "local_epochs": "5"})}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def dir_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Bench:
    """One benchmark run: a closed loop of operations and their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 configs: dict[str, Path]):
        from adapterleak import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.configs = configs
        self.tracer: Tracer | None = None  # set while the layers are wrapped
        self.attempted = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []  # wall time of each timed operation
        self.items = 0  # parameters checked, sweep cells or FL rounds
        self.attack_ms: list[float] = []
        self.max_rel_err: list[float] = []
        self.ceiling_violations = 0
        self.offline_mismatches = 0
        self.seed_backbone_fails = 0
        self.seed_backbone_err = 0.0
        self.defect_examples: list[str] = []
        self._first: dict[str, str] = {}
        self._scratch = 0
        self.last_out: Path | None = None  # kept for the attack top-up

    # -- helpers -------------------------------------------------------

    def _call(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue(), time.perf_counter() - t0

    def _fresh_dir(self, stem: str) -> Path:
        self._scratch += 1
        path = self.work / f"{stem}{self._scratch}"
        path.mkdir(parents=True)
        return path

    def _same_output(self, key: str, digest: str) -> str | None:
        """Compare with the first operation of this run under ``key``; None
        when it matches."""
        if self._first.setdefault(key, digest) != digest:
            return f"{key}: output bytes differ from an earlier operation with seed {self.seed}"
        return None

    def operation(self, fn) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            problem = fn()
        except Exception:  # noqa: BLE001 - an operation that raises has failed
            problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if problem:
            self.failures.append(problem)

    def loop(self, one_round, min_rounds: int = 1) -> None:
        """Closed loop with one client: repeat until ``seconds`` have passed."""
        start = time.perf_counter()
        done = 0
        while True:
            one_round()
            done += 1
            if done >= min_rounds and time.perf_counter() - start >= self.seconds:
                break

    # -- gradcheck ----------------------------------------------------

    def _gradcheck(self, config: str) -> tuple[int, re.Match | None, float, str]:
        rc, out, dt = self._call(["gradcheck", "--config", str(self.configs[config])])
        m = re.search(r"gradcheck (PASS|FAIL): max rel err (\S+) .* over (\d+) "
                      r"parameters .* worst at (.*)$", out.strip())
        return rc, m, dt, out.strip()

    def gradcheck_op(self) -> str | None:
        rc, m, dt, out = self._gradcheck("gradcheck")
        if m is None:
            return f"gradcheck exit {rc}: unparsable output {out!r}"
        self.max_rel_err.append(float(m.group(2)))
        self.op_s.append(dt)
        self.items += int(m.group(3))
        if rc != 0 or m.group(1) != "PASS":
            return f"gradcheck {m.group(1)} (exit {rc}): max rel err {m.group(2)}"
        return self._same_output("gradcheck", f"{m.group(2)} {m.group(4)}")

    def seed_backbone_check(self) -> str | None:
        """Untimed gradcheck on the backbone of craft seed ``7 + seed``; a FAIL
        is a known defect of the FD tolerance, counted but not failed."""
        rc, m, _, out = self._gradcheck("seed_backbone")
        if m is None or rc not in (0, 3):
            return f"seed-backbone gradcheck exit {rc}: unparsable output {out!r}"
        self.seed_backbone_err = float(m.group(2))
        if m.group(1) == "FAIL":
            self.seed_backbone_fails += 1
            self._example(f"gradcheck FAIL on craft seed {craft_seed(self.seed)}: "
                          f"max rel err {m.group(2)} at {m.group(4)}")
        return None

    # -- sweep --------------------------------------------------------

    def sweep_set(self) -> None:
        for sweep in SWEEPS:
            self.operation(lambda: self._sweep_op(*sweep))

    def sweep_reference(self) -> None:
        """Untimed run of one sweep of the set, picked by the seed, whose
        output bytes the timed run of the same sweep must match."""
        self.operation(lambda: self._sweep_op(*SWEEPS[self.seed % len(SWEEPS)], timed=False))

    def _sweep_op(self, cfg: str, vary: str, values: str, timed: bool = True) -> str | None:
        out = self._fresh_dir("sweep")
        rc, _, dt = self._call(["sweep", "--config", str(self.configs[cfg]),
                                "--vary", vary, "--values", values,
                                "--seeds", str(SWEEP_SEEDS), "--out", str(out)])
        if rc != 0:
            return f"sweep --vary {vary} exit {rc}"
        if timed:
            self.op_s.append(dt)
            self.items += len(values.split(",")) * SWEEP_SEEDS
        problem = self._same_output(f"sweep-{vary}", dir_digest(out))
        shutil.rmtree(out)
        return problem

    # -- rounds -------------------------------------------------------

    def rounds_iteration(self, timed: bool = True) -> None:
        """One ``run``, then the offline attack per round and merged."""
        out = self._fresh_dir("out")
        summary: dict = {}
        self.operation(lambda: self._run_op(out, summary, timed))
        if summary:
            for rho in [*range(ROUNDS), None]:
                self.operation(lambda: self._attack(out, rho, summary, timed))
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out if summary else None

    def _run_op(self, out: Path, summary: dict, timed: bool) -> str | None:
        rc, _, dt = self._call(["run", "--config", str(self.configs["rounds"]),
                                "--out", str(out)])
        if rc != 0:
            return f"run exit {rc}"
        if timed:
            self.op_s.append(dt)
            self.items += ROUNDS
        summary.update(json.loads((out / "summary.json").read_text()))
        if summary["matched_patches"] > summary["oracle_isolated_union"]:
            self.ceiling_violations += 1
            self._example(f"matched {summary['matched_patches']} > isolated union "
                          f"{summary['oracle_isolated_union']}")
        return self._same_output("run", dir_digest(out))

    def _attack(self, out: Path, rho: int | None, summary: dict | None,
                timed: bool = True) -> str | None:
        atk = self._fresh_dir("atk")  # never inside OUT: criterion 9 compares OUT
        argv = ["attack", "--grads", str(out / "grads.plta"),
                "--plan", str(out / "plan.json"),
                "--backbone", str(out / "backbone.plta"), "--out", str(atk)]
        if rho is not None:
            argv += ["--round", str(rho)]
        rc, _, dt = self._call(argv)
        if rc != 0:
            return f"attack --round {rho} exit {rc}"
        if timed:
            self.attack_ms.append(dt * 1e3)
        label = "merged" if rho is None else f"round{rho}"
        problem = self._same_output(f"attack-{label}", dir_digest(atk))
        if rho is None and summary is not None:
            offline = json.loads((atk / "attack_summary.json").read_text())["coverage"]
            if offline != summary["coverage"]:
                self.offline_mismatches += 1
                self._example(f"offline coverage {offline:.3f} vs run "
                              f"{summary['coverage']:.3f}")
        shutil.rmtree(atk)
        return problem

    def top_up_attacks(self) -> None:
        """Offline attacks on the last run until the p90 has ten samples past it."""
        rhos = [*range(ROUNDS), None]
        i = 0
        while self.last_out is not None and len(self.attack_ms) < ATTACK_SAMPLES_MIN:
            rho = rhos[i % len(rhos)]
            self.operation(lambda: self._attack(self.last_out, rho, None))
            i += 1

    def _example(self, text: str) -> None:
        if text not in self.defect_examples:
            self.defect_examples.append(text)

    # -- results ------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """name -> (value, unit, samples) for the operations timed; 0.0 where
        a workload has no such operation or too few samples."""
        n_ops = len(self.op_s)
        p50 = statistics.median(self.op_s) if n_ops else 0.0
        if self.workload == "sweep":  # unlike invocations: cells over total wall
            wall = sum(self.op_s)
            items_per_s = self.items / wall if wall else 0.0
        else:  # alike operations: the median resists a burst of host slowness
            items_per_s = self.items / n_ops / p50 if n_ops else 0.0
        n_att = len(self.attack_ms)
        p90_ok = n_att >= ATTACK_SAMPLES_MIN
        return {
            "op_s_p50": (p50, "s", n_ops),
            "items_per_s": (items_per_s, "1/s", n_ops),
            "attack_ms_p50": (statistics.median(self.attack_ms) if n_att else 0.0,
                              "ms", n_att),
            "attack_ms_p90": (statistics.quantiles(self.attack_ms, n=10)[-1]
                              if p90_ok else 0.0, "ms", n_att),
        }


def _loop(bench: Bench) -> None:
    if bench.workload == "gradcheck":
        bench.loop(lambda: bench.operation(bench.gradcheck_op), GRADCHECK_MIN_OPS)
    elif bench.workload == "sweep":
        bench.loop(bench.sweep_set)
    else:
        bench.loop(bench.rounds_iteration)
        bench.top_up_attacks()
        if bench.last_out is not None:
            shutil.rmtree(bench.last_out)
            bench.last_out = None


def run_workload(bench: Bench, tracer: Tracer | None = None) -> list[str]:
    """Run the workload, traced when ``tracer`` is given; returns the names
    whose original function was not restored afterwards."""
    # Untimed operations whose output bytes the timed ones must match. They
    # run before tracing starts, so they are also the untraced reference.
    if bench.workload == "gradcheck":
        bench.operation(bench.seed_backbone_check)
    elif bench.workload == "sweep":
        bench.sweep_reference()
    else:
        bench.rounds_iteration(timed=False)
    if tracer is None:
        _loop(bench)
        return []
    bench.tracer = tracer
    layers.install(tracer)
    try:
        _loop(bench)
    finally:
        errors = tracer.restore()
    return errors
