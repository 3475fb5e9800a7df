"""In-memory span tracer that wraps program functions where callers look them up.

The program imports by name (``from .dataio import synth_batch``), so a
wrapper only sees calls when it replaces the name in the *calling* module's
namespace, e.g. ``flsim.synth_batch``. ``Tracer.install`` does that and
remembers the original object; ``Tracer.restore`` puts every original back
and reports any name that no longer holds it.

Each call becomes a span: name, start, end, parent span and operation id.
A span opened in a worker thread with nothing open in that thread takes as
parent the innermost span open in the main thread (the FD oracle or the
sweep that started the pool). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread", "attrs")

    def __init__(self, sid, name, start, end, parent, op, thread, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rusage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_nivcsw


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Create from the main thread; install, run, then restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._installed: list[tuple[object, str, object, object]] = []
        self._children: dict[int, list[Span]] | None = None

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        top = self._main_stack[-1:]  # slicing is atomic; [-1] could race a pop
        return top[0] if top else None

    def wrap(self, fn, name: str, on_exit=None, rusage: bool = False):
        """``fn`` timed as span ``name``; ``on_exit(args, kwargs, result)``
        returns extra attributes for the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            op = tracer.op
            ru0 = _rusage() if rusage else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append(Span(sid, name, t0, time.perf_counter(), parent,
                                         op, threading.get_ident(), {"raised": 1}))
                raise
            t1 = time.perf_counter()
            stack.pop()
            attrs = on_exit(args, kwargs, result) if on_exit is not None else {}
            if ru0 is not None:
                cpu, nivcsw = _rusage()
                attrs["cpu_s"] = cpu - ru0[0]
                attrs["nivcsw"] = nivcsw - ru0[1]
            tracer.spans.append(Span(sid, name, t0, t1, parent, op,
                                     threading.get_ident(), attrs))
            return result

        return traced

    def install(self, module, attr: str, name: str, on_exit=None,
                rusage: bool = False) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_exit, rusage)
        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original, wrapper))

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not hold
        the expected object (an empty list means all were restored)."""
        bad = []
        for module, attr, original, wrapper in reversed(self._installed):
            if getattr(module, attr) is not wrapper:
                bad.append(f"{module.__name__}.{attr} was replaced while traced")
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                bad.append(f"{module.__name__}.{attr} not restored")
        self._installed.clear()
        return bad

    # ------------------------------------------------------------------
    # queries over recorded spans

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def children(self, span: Span) -> list[Span]:
        if self._children is None:
            self._children = {}
            for s in self.spans:
                self._children.setdefault(s.parent, []).append(s)
        return self._children.get(span.sid, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(c.start, c.end) for c in self.children(span)]
        return span.duration - covered(kids, span.start, span.end)

    def threads(self, names) -> int:
        return len({s.thread for s in self.spans if s.name in names})

    def dump(self, path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [{"id": s.sid, "name": s.name, "start": s.start - t0,
                 "end": s.end - t0, "parent": s.parent, "op": s.op,
                 "thread": s.thread, **s.attrs} for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)
