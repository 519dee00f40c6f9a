"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps each layer's public entry points from the outside: it
replaces the function object at *every* module of ``repro`` that binds it
(``parse_program`` is bound in the session, the scheduler and the engine;
``index_body`` in the per-function analysis and the cache), and the method on its
class.  Wrappers are installed only for the traced run and removed after it.

Each wrapped call becomes a span (name, start, end, parent, op id) kept in
memory; a layer's self time is its spans' durations minus their children's.
Garbage-collection pauses, seen through ``gc.callbacks``, are charged to
``runtime.gc`` and subtracted from the span they land in.  Work that the
scheduler's pool workers do is invisible here by design: the parent's wait
on them stays in ``service.scheduler``'s self time.  The op itself is the
root span; its self time is the session's residual (``service.session``).
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "lang.lexer",
    "lang.parser",
    "lang.typeck",
    "mir.lower",
    "mir.callgraph",
    "mir.indices",
    "mir.pretty",
    "service.cache.fingerprint",
    "borrowck.oracle",
    "dataflow.control_deps",
    "dataflow.engine",
    "core.analysis",
    "service.scheduler",
    "service.cache.codec",
    "service.cache.store",
    "focus.table.load",
    "focus.resolve",
    "focus.table.build",
    "service.invalidate",
    "runtime.gc",
    "service.session",
)

# Counts recorded beside the layer times.
COUNTS = (
    "lang.parser.bytes",
    "dataflow.engine.iterations",
    "service.cache.hit_ratio",
    "service.invalidate.evicted",
    "service.scheduler.pool_ops",
    "service.scheduler.fallback_ops",
    "runtime.gc.gen2_collections",
    "runtime.gc.live_objects_end",
    "trace.coverage",
    "trace.overhead",
)


def _count_parse_bytes(tracer: "LayerTracer", args, kwargs, result) -> None:
    source = args[0] if args else kwargs.get("source", "")
    tracer.totals["parse_bytes"] += len(source)


def _count_iterations(tracer, args, kwargs, result) -> None:
    tracer.totals["iterations"] += result.iterations


def _count_store_get(tracer, args, kwargs, result) -> None:
    tracer.totals["store_gets"] += 1
    tracer.totals["store_hits"] += result is not None


def _count_evicted(tracer, args, kwargs, result) -> None:
    tracer.totals["evicted"] += result


def _note_scheduler_mode(tracer, args, kwargs, result) -> None:
    tracer.op_modes.add(result.mode)


# (layer, module, attribute, workload whose ops must call it, count hook).
# The workload column is what the self-tests check: a refactor that moves a
# binding out of reach of the wrappers shows up as a zero call count there.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("lang.lexer", "repro.lang.lexer", "tokenize", "edit_focus", None),
    ("lang.parser", "repro.lang.parser", "parse_program", "edit_focus", _count_parse_bytes),
    ("lang.typeck", "repro.lang.typeck", "check_program", "edit_focus", None),
    ("mir.lower", "repro.mir.lower", "lower_program", "edit_focus", None),
    ("mir.callgraph", "repro.mir.callgraph", "build_call_graph", "edit_focus", None),
    ("mir.indices", "repro.mir.indices", "index_body", "cold_batch", None),
    ("mir.pretty", "repro.mir.pretty", "pretty_body", "edit_focus", None),
    ("service.cache.fingerprint", "repro.service.cache", "FingerprintIndex.snapshot",
     "edit_focus", None),
    ("borrowck.oracle", "repro.borrowck.oracle", "make_oracle", "cold_batch", None),
    ("dataflow.control_deps", "repro.dataflow.control_deps", "compute_control_deps",
     "cold_batch", None),
    ("dataflow.engine", "repro.dataflow.engine", "ForwardAnalysis.run", "cold_batch",
     _count_iterations),
    ("core.analysis", "repro.core.analysis", "FunctionFlowAnalysis.run", "cold_batch", None),
    ("service.scheduler", "repro.service.scheduler", "BatchScheduler.run", "cold_batch",
     _note_scheduler_mode),
    ("service.cache.codec", "repro.service.cache", "FunctionRecord.from_result",
     "cold_batch", None),
    ("service.cache.codec", "repro.service.cache", "FunctionRecord.from_json_dict",
     "cold_batch", None),
    ("service.cache.store", "repro.service.cache", "SummaryStore.get", "warm_focus",
     _count_store_get),
    ("service.cache.store", "repro.service.cache", "SummaryStore.put", "cold_batch", None),
    ("focus.table.load", "repro.focus.table", "FocusTable.from_json_dict", "warm_focus", None),
    ("focus.table.load", "repro.focus.table", "FocusTable.respan", "warm_focus", None),
    ("focus.resolve", "repro.focus.resolve", "resolve_cursor", "warm_focus", None),
    ("focus.table.build", "repro.focus.table", "FocusTable.build", "edit_focus", None),
    ("service.invalidate", "repro.service.invalidate", "plan_both_conditions",
     "edit_focus", None),
    ("service.invalidate", "repro.service.invalidate", "apply_invalidation", "edit_focus",
     _count_evicted),
    ("service.session", "repro.service.session", "AnalysisSession.__init__", "cold_batch", None),
    ("service.session", "repro.service.session", "AnalysisSession.open_unit", "cold_batch",
     None),
    ("service.session", "repro.service.session", "AnalysisSession.update_unit", "edit_focus",
     None),
    ("service.session", "repro.service.session", "AnalysisSession.warm", "cold_batch", None),
    ("service.session", "repro.service.session", "AnalysisSession.analyze", "cold_batch", None),
    ("service.session", "repro.service.session", "AnalysisSession.focus", "warm_focus", None),
)


class LayerTracer:
    """Span recorder plus per-layer self-time, call and count accounting."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Optional[tuple]] = []
        self.self_time: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.entry_calls: Dict[Tuple[str, str], int] = {}
        self.totals: Dict[str, float] = {
            "parse_bytes": 0, "iterations": 0, "store_gets": 0, "store_hits": 0,
            "evicted": 0, "pool_ops": 0, "fallback_ops": 0, "gen2": 0,
        }
        self.op_time = 0.0
        self.ops = 0
        self.op_modes: set = set()
        self._stack: List[list] = []
        self._op = -1
        self._gc_started: Optional[float] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, attribute, _, hook in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            key = (module_name, attribute)
            self.entry_calls[key] = 0
            if "." in attribute:
                self._wrap_method(layer, key, module, attribute, hook)
            else:
                self._wrap_function(layer, key, getattr(module, attribute), hook)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap_function(self, layer, key, original, hook) -> None:
        wrapper = self._wrapper(layer, key, original, hook)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    def _wrap_method(self, layer, key, module, attribute, hook) -> None:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(layer, key, raw.__func__, hook))
        else:
            wrapped = self._wrapper(layer, key, raw, hook)
        self._patches.append((owner, method, raw))
        setattr(owner, method, wrapped)

    def _wrapper(self, layer, key, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0 or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            frame = tracer._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            tracer.entry_calls[key] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------------

    def _push(self, layer: str, name: Optional[str] = None) -> list:
        parent = self._stack[-1][4] if self._stack else -1
        # [layer, name, start, child time, span index, parent index, gc time]
        frame = [layer, name or layer, time.perf_counter(), 0.0, len(self.spans), parent, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        layer, name, start, child, index, parent, gc_time = frame
        duration = end - start
        self.self_time[layer] += duration - child - gc_time
        if name == layer:
            self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index] = (name, start, end, parent, self._op)
        return duration

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only pauses inside an open span of the current op are charged: the
        # span they land in is where their time is subtracted.
        if self._op < 0 or not self._stack or os.getpid() != self.pid:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None:
            return
        end = time.perf_counter()
        pause = end - self._gc_started
        self.self_time["runtime.gc"] += pause
        self.calls["runtime.gc"] += 1
        if info.get("generation") == 2:
            self.totals["gen2"] += 1
        parent = -1
        if self._stack:
            self._stack[-1][6] += pause
            parent = self._stack[-1][4]
        self.spans.append(("runtime.gc", self._gc_started, end, parent, self._op))
        self._gc_started = None

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.op_modes = set()
        self._push("service.session", name="op")

    def end_op(self) -> None:
        self.op_time += self._pop(self._stack[0])
        self.ops += 1
        self.totals["pool_ops"] += "parallel" in self.op_modes
        self.totals["fallback_ops"] += "serial-fallback" in self.op_modes
        self._op = -1

    # -- reports -------------------------------------------------------------------

    def metrics(self, live_objects_end: int, overhead: float) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric: ``name -> (value, unit)``."""
        ops = max(1, self.ops)
        op_time = self.op_time or 1.0
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (self.self_time[layer] * 1000.0 / ops, "ms")
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count")
            out[f"{layer}.share"] = (self.self_time[layer] / op_time, "ratio")
        gets = self.totals["store_gets"]
        named = sum(self.self_time[layer] for layer in LAYERS if layer != "service.session")
        out["lang.parser.bytes"] = (self.totals["parse_bytes"] / ops, "bytes")
        out["dataflow.engine.iterations"] = (self.totals["iterations"] / ops, "count")
        out["service.cache.hit_ratio"] = (self.totals["store_hits"] / gets if gets else 0.0, "ratio")
        out["service.invalidate.evicted"] = (self.totals["evicted"] / ops, "count")
        out["service.scheduler.pool_ops"] = (self.totals["pool_ops"], "count")
        out["service.scheduler.fallback_ops"] = (self.totals["fallback_ops"], "count")
        out["runtime.gc.gen2_collections"] = (self.totals["gen2"], "count")
        out["runtime.gc.live_objects_end"] = (live_objects_end, "count")
        out["trace.coverage"] = (named / op_time, "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def chrome_trace(self) -> dict:
        """All spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
        spans = [span for span in self.spans if span is not None]
        base = min((span[1] for span in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": "layer",
                "ph": "X",
                "ts": round((start - base) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": self.pid,
                "tid": 0,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
