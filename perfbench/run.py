"""adapterleak benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {gradcheck,sweep,rounds} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/`` and
driven through its CLI entry point ``adapterleak.cli.main`` as a closed loop
with one client; it sees only the config files made from ``--seed``. With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every layer is wrapped at its call sites (see ``layers.py``)
and the last line reports the per-layer metrics. The lines before it print
every metric with its unit and sample count, the machine record and the
checks. Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("gradcheck", "sweep", "rounds")
SETUP_PROBES = 5
THREAD_ENV = ("PEFTLEAK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def blas_threads():
    """OpenBLAS thread count through numpy's bundled library (read only)."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def cpu_steal_ticks() -> int:
    """Machine-wide CPU time taken by the hypervisor, in clock ticks."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "threadpoolctl_imports": has_tpc,
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def setup_probe(t_spawn: float, workload: str, seed: int) -> None:
    """Child process: import the package and write the workload's configs."""
    import adapterleak.cli  # noqa: F401
    from workloads import write_configs

    probe_dir = WORK / f"probe-{os.getpid()}"
    write_configs(workload, seed, probe_dir)
    elapsed = time.time() - t_spawn
    shutil.rmtree(probe_dir)
    print(f"{elapsed!r}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to configs written, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", repr(t0),
             "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", "0"],
            check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args()

    if not (ROOT / "src" / "adapterleak" / "cli.py").is_file():
        print(f"error: no adapterleak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        setup_probe(args.setup_probe, args.workload, args.seed)
        return 0

    import layers
    from spans import Tracer
    from workloads import Bench, run_workload, write_configs

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    steal0 = cpu_steal_ticks()
    try:
        # set-up is the same with tracing on, so only the untraced run probes it
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        configs = write_configs(args.workload, args.seed, work)
        bench = Bench(args.workload, args.seed, args.seconds, work, configs)
        tracer = Tracer() if args.trace else None
        restore_errors = run_workload(bench, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {**bench.end_to_end(), "peak_rss_mb": (peak_rss_mb, "MB", 1)}
    if setup is not None:
        e2e = {"setup_s": (statistics.median(setup), "s", len(setup)), **e2e}
    counts = {"attack.ceiling_violations": bench.ceiling_violations,
              "attack.offline_mismatches": bench.offline_mismatches,
              "grad.fd.seed_backbone_fails": bench.seed_backbone_fails,
              "grad.fd.max_rel_err": max(bench.max_rel_err, default=0.0)}
    checks = {"failures": bench.failures[:20],
              "defect_examples": bench.defect_examples[:5],
              "cpu_steal_s": (cpu_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")}
    if args.workload == "gradcheck":
        checks["seed_backbone_max_rel_err"] = bench.seed_backbone_err
    prefix = ""
    if tracer is not None:
        prefix = "traced."
        checks["wrapper_errors"] = layers.self_test(tracer, args.workload) + restore_errors
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
        checks["trace_file"] = str(trace_file.relative_to(ROOT))
        checks["spans"] = len(tracer.spans)

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for name, (value, unit, n) in e2e.items():
        print(f"metric {prefix}{name} = {value!r} {unit} (n={n})")
    values = {f"{prefix}{k}": v[0] for k, v in e2e.items()}
    layer_values = dict(counts)
    if tracer is not None:
        layer_values.update(layers.layer_metrics(tracer))
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, value in layer_values.items():
        print(f"metric {name} = {value!r} {units[name]} (ops={bench.attempted})")
    values.update(layer_values)
    print("checks " + json.dumps(checks, sort_keys=True))

    wanted = BENCH["per_layer"] if tracer is not None else BENCH["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not bench.failures and not checks.get("wrapper_errors")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
