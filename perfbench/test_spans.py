"""Self-tests of the benchmark's tracer and wrapper sites.

    python3 -m pytest perfbench
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from spans import Tracer, covered  # noqa: E402


class _Mod:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Mod.leaf(x) * 2


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0


def test_install_records_nesting_and_restores_originals():
    leaf, outer = _Mod.leaf, _Mod.outer
    tr = Tracer()
    tr.install(_Mod, "leaf", "leaf")
    tr.install(_Mod, "outer", "outer")
    assert _Mod.outer(1) == 4
    assert tr.restore() == []
    assert _Mod.leaf is leaf and _Mod.outer is outer
    (o,), (lf,) = tr.named("outer"), tr.named("leaf")
    assert lf.parent == o.sid
    assert tr.self_time(o) == pytest.approx(o.duration - lf.duration)


def test_restore_reports_a_wrapper_replaced_behind_its_back():
    tr = Tracer()
    original = _Mod.leaf
    tr.install(_Mod, "leaf", "leaf")
    _Mod.leaf = staticmethod(lambda x: x)
    assert tr.restore() == ["_Mod.leaf was replaced while traced"]
    assert _Mod.leaf is original


def test_worker_spans_attach_to_the_open_main_thread_span():
    tr = Tracer()
    tr.install(_Mod, "leaf", "leaf")

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(_Mod.leaf, range(n)))

    try:
        tr.wrap(fan_out, "fan_out")(8)
    finally:
        assert tr.restore() == []
    (root,) = tr.named("fan_out")
    leaves = tr.named("leaf")
    assert len(leaves) == 8
    assert {s.parent for s in leaves} == {root.sid}
    assert all(s.thread != threading.get_ident() for s in leaves)


def test_every_site_names_a_function_of_its_calling_module():
    from adapterleak import attack, cli, craft, flsim, grad, oracle

    modules = {"attack": attack, "cli": cli, "craft": craft, "flsim": flsim,
               "grad": grad, "oracle": oracle}
    for mod, attr, *_ in layers.SITES:
        assert callable(getattr(modules[mod], attr)), f"{mod}.{attr}"
    tr = Tracer()
    before = {(m, a): getattr(modules[m], a) for m, a, *_ in layers.SITES}
    layers.install(tr)
    assert tr.restore() == []
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_benchmark_lists_every_reported_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"]}
    derived = set(layers.layer_metrics(Tracer()))
    extra = {"attack.ceiling_violations", "attack.offline_mismatches",
             "grad.fd.seed_backbone_fails", "grad.fd.max_rel_err"}
    # the traced run repeats every end-to-end value but set-up, which tracing
    # does not touch, and the ungated ones
    traced = {f"traced.{m['name']}" for m in bench["end_to_end"] if m["name"] != "setup_s"}
    traced |= {"traced.op_s_p50", "traced.attack_ms_p50", "traced.attack_ms_p90",
               "traced.peak_rss_mb"}
    assert listed == derived | extra | traced
