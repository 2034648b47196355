"""Tracing from outside the program: timing wrappers around repro's entry points.

The program has no tracer of its own yet, so the traced run installs
wrappers from here, around the calls into each layer, and removes them
afterwards.  Each wrapper is patched where the name is *looked up*:
``state_key`` is bound by name into ``repro.pipeline.runner``, the
kernels are called as ``kernels.apply_gate``, and ``repro.compile`` is
re-exported under three names.

Span names reuse the fault-site vocabulary of ``repro.resilience``
(``pipeline.pass.run.<name>``, ``cache.*``) so an in-program tracer can
adopt them unchanged.  Two kinds of record exist:

* spans — one Chrome trace event per call (layer boundaries that fire a
  few times per job);
* aggregates — per-op-kind counters only (``dm.*``, ``kernels.*``),
  which fire once per gate and would swamp the trace otherwise.

Both take part in self-time accounting: a frame's self time is its
duration minus the time of the frames nested in it.  Kernel frames have
no layer of their own; their self time goes to the layer that called
them (the engine during simulation, the verifier in its dense tier).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter

#: layer groups for self-time shares, in report order.
LAYERS = (
    "facade", "passes", "cache", "verify", "emit", "engines", "projectq",
    "other",
)


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span")

    def __init__(self, name: str, layer: Optional[str], span: bool):
        self.name = name
        self.layer = layer
        self.span = span
        self.child = 0.0
        self.start = _clock()


class Recorder:
    """Spans, aggregates and per-layer self time, all held in memory."""

    def __init__(self) -> None:
        self.active = True
        self.events: List[Dict[str, Any]] = []
        #: metric key -> summed fields (``n``, ``s`` and extra counts).
        self.stats: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: layer -> self seconds, over all jobs.
        self.layer_self: Dict[str, float] = defaultdict(float)
        #: layer -> self seconds, over cache-hit jobs only.
        self.hit_layer_self: Dict[str, float] = defaultdict(float)
        self._job_layers: Dict[str, float] = defaultdict(float)
        self._stack: List[_Frame] = []
        self._origin = _clock()
        self.job_index = -1

    # -- frames ---------------------------------------------------------
    def enter(self, name: str, layer: Optional[str], span: bool = True) -> _Frame:
        frame = _Frame(name, layer, span)
        self._stack.append(frame)
        return frame

    def leave(self, frame: _Frame, key: Optional[str] = None, **counts: float) -> float:
        """Close ``frame``; book its time under ``key`` plus ``counts``."""
        end = _clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"unbalanced trace frames at {frame.name!r}")
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        layer = frame.layer
        if layer is None:
            layer = self._inherited_layer()
        self._job_layers[layer] += duration - frame.child
        stat = self.stats[key or frame.name]
        stat["n"] += 1
        stat["s"] += duration
        stat["self"] += duration - frame.child
        for field, value in counts.items():
            stat[field] += value
        if frame.span:
            self.events.append({
                "name": frame.name,
                "ph": "X",
                "ts": (frame.start - self._origin) * 1e6,
                "dur": duration * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": {"job": self.job_index, **counts},
            })
        return duration

    def _inherited_layer(self) -> str:
        for frame in reversed(self._stack):
            if frame.layer is not None:
                return frame.layer
        return "other"

    # -- jobs -----------------------------------------------------------
    def job(self, index: int) -> _Frame:
        """Open the root span of job ``index``."""
        self.job_index = index
        self._job_layers = defaultdict(float)
        return self.enter("job", "other")

    def end_job(self, frame: _Frame, hit: bool = False) -> float:
        """Close a job's root span and fold its layer times in."""
        duration = self.leave(frame, hit=float(hit))
        for layer, seconds in self._job_layers.items():
            self.layer_self[layer] += seconds
            if hit:
                self.hit_layer_self[layer] += seconds
        return duration

    # -- export ---------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        aggregates = {
            key: dict(fields) for key, fields in sorted(self.stats.items())
        }
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": self.events,
                    "displayTimeUnit": "ms",
                    "otherData": {"aggregates": aggregates},
                },
                handle,
            )


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _plain(rec: Recorder, fn: Callable, name: str, layer: Optional[str],
           span: bool = True) -> Callable:
    """Time every call of ``fn`` under a fixed name."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.enter(name, layer, span)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(frame)
    return wrapper


def _pass_name(name: str) -> str:
    """``revgen-hwb`` -> ``revgen``; other pass names are kept."""
    return "revgen" if name.startswith("revgen-") else name


def _run_pass(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, pass_, state):
        if not rec.active:
            return fn(self, pass_, state)
        frame = rec.enter(f"pipeline.pass.run.{pass_.name}", "passes")
        result = None
        try:
            result = fn(self, pass_, state)
            return result
        finally:
            counts = {}
            if result is not None:
                circuit = result.quantum
                if circuit is None:
                    circuit = result.reversible
                counts["gates_out"] = float(len(circuit)) if circuit is not None else 0.0
                if pass_.name in ("rptm", "tpar") and result.quantum is not None:
                    counts["t_out"] = float(result.quantum.t_count())
            rec.leave(frame, key=f"pass.{_pass_name(pass_.name)}", **counts)
    return wrapper


def _cache_get(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not rec.active:
            return fn(self, *args, **kwargs)
        frame = rec.enter("cache.get", "cache")
        entry = None
        try:
            entry = fn(self, *args, **kwargs)
            return entry
        finally:
            rec.leave(frame, hits=float(entry is not None),
                      misses=float(entry is None))
    return wrapper


def _cache_put(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not rec.active:
            return fn(self, *args, **kwargs)
        frame = rec.enter("cache.put", "cache")
        before = self.memory_evictions
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.leave(frame, evictions=float(self.memory_evictions - before))
    return wrapper


def _check(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, checker, before, after):
        if not rec.active:
            return fn(self, checker, before, after)
        frame = rec.enter("verify.check", "verify")
        verdict = None
        try:
            verdict = fn(self, checker, before, after)
            return verdict
        finally:
            if verdict is None:
                key = "verify.error"
            elif verdict.skipped:
                key = "verify.skipped"
            else:
                key = f"verify.{verdict.tier}"
            frame.name = f"{key}({self.name})"
            rec.leave(frame, key=key)
    return wrapper


def _emit(rec: Recorder, fn: Callable, fmt: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, circuit, **opts):
        if not rec.active:
            return fn(self, circuit, **opts)
        frame = rec.enter(f"emit.{fmt}", "emit")
        text = ""
        try:
            text = fn(self, circuit, **opts)
            return text
        finally:
            rec.leave(frame, bytes=float(len(text)))
    return wrapper


def _engine(rec: Recorder, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, circuit, **kwargs):
        if not rec.active:
            return fn(self, circuit, **kwargs)
        frame = rec.enter(f"engine.{name}", "engines")
        try:
            return fn(self, circuit, **kwargs)
        finally:
            rec.leave(frame, shots=float(kwargs.get("shots", 0)))
    return wrapper


class Installed:
    """Patch the wrappers in on entry, restore every original on exit."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: List[tuple] = []

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> Recorder:
        import repro
        import repro.compiler as compiler_pkg
        from repro import emit as emit_registry
        from repro import engines as engine_registry
        from repro.compiler import session, target
        from repro.engines.density_matrix import DensityMatrix
        from repro.frameworks.projectq.engine import MainEngine
        from repro.pipeline import cache, passes, runner
        from repro.simulator import kernels

        rec = self.rec
        compile_wrapper = _plain(rec, session.compile, "compile", "facade")
        for owner in (session, compiler_pkg, repro):
            self._patch(owner, "compile", compile_wrapper)
        self._patch(session, "detect_workload", _plain(
            rec, session.detect_workload, "frontends.detect", "facade"))
        self._patch(target.Target, "flow", _plain(
            rec, target.Target.flow, "target.flow", "facade"))
        self._patch(runner.Pipeline, "_run_pass",
                    _run_pass(rec, runner.Pipeline._run_pass))
        self._patch(runner, "state_key",
                    _plain(rec, runner.state_key, "cache.key", "cache"))
        self._patch(cache.PassCache, "get", _cache_get(rec, cache.PassCache.get))
        self._patch(cache.PassCache, "put", _cache_put(rec, cache.PassCache.put))
        self._patch(passes.Pass, "check", _check(rec, passes.Pass.check))
        for fmt in ("qasm2", "qsharp"):
            cls = type(emit_registry.get(fmt))
            self._patch(cls, "emit", _emit(rec, cls.emit, fmt))
        for name in ("density_matrix", "monte_carlo"):
            cls = type(engine_registry.get(name))
            self._patch(cls, "run", _engine(rec, cls.run, name))
        for method in ("apply_gate", "apply_channel"):
            self._patch(DensityMatrix, method, _plain(
                rec, getattr(DensityMatrix, method), f"dm.{method}",
                "engines", span=False))
        for function in ("apply_gate", "apply_matrix", "apply_pauli"):
            self._patch(kernels, function, _plain(
                rec, getattr(kernels, function), f"kernels.{function}",
                None, span=False))
        self._patch(MainEngine, "flush", _plain(
            rec, MainEngine.flush, "projectq.flush", "projectq"))
        return rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
