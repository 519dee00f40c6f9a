"""Batch scheduler: topological waves over the call graph.

Functions are grouped into *waves*: every function in a wave has all of its
in-batch callees in earlier waves, so summaries are available bottom-up (the
order that makes the serial whole-program pass linear instead of quadratic).
:class:`BatchScheduler` walks the waves in one process: under the modular
condition each function is analysed from its callees' signatures alone, so
per-function work is too small to repay a process pool's start-up and
pickling.

:func:`map_shards` is the process-pool fan-out for tasks that are large and
independent — the mass-evaluation harness's whole programs.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.engine import FlowEngine
from repro.mir.callgraph import CallGraph
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span
from repro.service.cache import (
    FingerprintIndex,
    FunctionRecord,
    SummaryStore,
    config_cache_key,
)


def _strongly_connected_components(deps: Dict[str, set]) -> Dict[str, int]:
    """Tarjan over the in-batch dependency graph; returns node → SCC id."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    component: Dict[str, int] = {}
    counter = [0]
    comp_counter = [0]

    def strongconnect(root: str) -> None:
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(root, iter(sorted(deps[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(sorted(deps[succ]))))
                    advanced = True
                    break
                if on_stack.get(succ, False):
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1

    for name in sorted(deps):
        if name not in index:
            strongconnect(name)
    return component


def schedule_waves(graph: CallGraph, names: Sequence[str]) -> List[List[str]]:
    """Partition ``names`` into callees-first waves of independent functions.

    Only dependencies *within* ``names`` constrain the order; self-recursion
    is ignored (a function cannot wait on itself) and a call cycle collapses
    into a single wave entry while its callers still come later.
    """
    ordered = list(dict.fromkeys(names))
    in_set = set(ordered)
    deps = {
        name: {c for c in graph.unique_callees(name) if c in in_set and c != name}
        for name in ordered
    }
    component = _strongly_connected_components(deps)

    # Kahn levels over the SCC condensation.
    comp_members: Dict[int, List[str]] = {}
    for name in ordered:
        comp_members.setdefault(component[name], []).append(name)
    comp_deps: Dict[int, set] = {cid: set() for cid in comp_members}
    for name in ordered:
        for dep in deps[name]:
            if component[dep] != component[name]:
                comp_deps[component[name]].add(component[dep])

    waves: List[List[str]] = []
    remaining = set(comp_members)
    while remaining:
        ready = sorted(cid for cid in remaining if not (comp_deps[cid] & remaining))
        assert ready, "SCC condensation is acyclic"
        wave = sorted(name for cid in ready for name in comp_members[cid])
        waves.append(wave)
        remaining -= set(ready)
    return waves


def map_shards(
    worker,
    tasks: Sequence,
    *,
    max_workers: Optional[int] = None,
    chunk_size: int = 8,
    initializer=None,
    initargs: tuple = (),
):
    """Fan ``tasks`` across a process pool in order-preserving chunks.

    ``worker`` must be a module-level (picklable) function taking one chunk
    (a list of tasks) and returning a list of results; ``initializer`` runs
    once per worker process.  With ``max_workers`` of 0 or 1, or a single
    task, the chunks run serially in-process (``initializer`` called first).

    An exception raised by ``worker`` propagates, with the worker's
    traceback as its ``__cause__``.  Only a pool that cannot do the work —
    process creation failing with ``OSError``, a ``BrokenProcessPool`` or a
    pickling error — falls back to running the same chunks serially, counted
    in ``scheduler_fallbacks_total``.  (An ``initializer`` that raises in the
    workers breaks the pool, so the serial re-run raises it in-process.)

    Returns ``(mode, results, error)`` where mode is ``"serial"`` /
    ``"parallel"`` / ``"serial-fallback"``, results concatenate the chunk
    results in task order, and ``error`` names the pool failure behind a
    fallback.  This is the corpus-level fan-out the mass-evaluation harness
    runs on: its tasks are whole independent programs.
    """
    items = list(tasks)
    size = max(1, chunk_size)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]

    def run_serial() -> List:
        if initializer is not None:
            initializer(*initargs)
        out: List = []
        for index, chunk in enumerate(chunks):
            with obs_span("shard", index=index, size=len(chunk)):
                out.extend(worker(chunk))
        return out

    if (max_workers or 0) <= 1 or len(items) <= 1:
        return "serial", run_serial(), None
    try:
        results = _map_on_pool(worker, chunks, max_workers, initializer, initargs)
    except _PoolUnavailable as unavailable:
        error = unavailable.__cause__
        obs_metrics.get_registry().counter("scheduler_fallbacks_total").inc()
        return "serial-fallback", run_serial(), f"{type(error).__name__}: {error}"
    return "parallel", results, None


class _PoolUnavailable(Exception):
    """The pool could not run the chunks; ``__cause__`` says why."""


def _map_on_pool(worker, chunks: List[List], max_workers: int, initializer, initargs) -> List:
    """``worker`` over ``chunks`` on a fresh pool, results in chunk order.

    Raises :class:`_PoolUnavailable` when the pool itself fails; anything the
    worker raises propagates unchanged.
    """
    try:
        # Every submitted call pickles ``worker``: check it once, before any
        # process starts.
        pickle.dumps(worker)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise _PoolUnavailable from error
    try:
        pool = ProcessPoolExecutor(
            max_workers=max_workers, initializer=initializer, initargs=initargs
        )
    except (OSError, NotImplementedError) as error:  # no usable semaphores
        raise _PoolUnavailable from error
    try:
        try:
            # Submitting starts the worker processes.
            futures = [pool.submit(worker, chunk) for chunk in chunks]
        except OSError as error:
            raise _PoolUnavailable from error
        results: List = []
        for future in futures:
            try:
                results.extend(future.result())
            except (BrokenProcessPool, pickle.PicklingError) as error:
                raise _PoolUnavailable from error
        return results
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass
class BatchResult:
    """Outcome of one scheduled batch."""

    waves: List[List[str]]
    records: Dict[str, FunctionRecord] = field(default_factory=dict)
    cached: List[str] = field(default_factory=list)
    seconds: float = 0.0
    # Batches always run in-process; reported for callers that log the mode.
    mode = "serial"

    def computed(self) -> int:
        """How many functions were actually (re)analysed this batch."""
        return len(self.records)

    def to_json_dict(self) -> dict:
        """The batch outcome as carried in ``warm`` responses."""
        return {
            "mode": self.mode,
            "waves": [len(wave) for wave in self.waves],
            "computed": self.computed(),
            "cached": len(self.cached),
            "seconds": round(self.seconds, 6),
        }


class BatchScheduler:
    """Schedules batch analysis of many functions under one configuration."""

    def run(
        self,
        engine: FlowEngine,
        *,
        names: Optional[Sequence[str]] = None,
        store: Optional[SummaryStore] = None,
        fingerprints: Optional[FingerprintIndex] = None,
    ) -> BatchResult:
        """Analyse ``names`` (default: every local function) of ``engine``'s
        program wave by wave, callees first, reusing and filling ``store``
        when one is given."""
        start = time.perf_counter()
        if names is None:
            names = engine.local_function_names()
        condition = config_cache_key(engine.config)
        waves = schedule_waves(engine.call_graph, names)
        registry = obs_metrics.get_registry()
        wave_sizes = registry.histogram(
            "scheduler_wave_size", buckets=obs_metrics.COUNT_BUCKETS
        )
        for wave in waves:
            wave_sizes.observe(len(wave))

        result = BatchResult(waves=waves)

        # Serve what the store already has; only the rest is scheduled.
        pending = set()
        for wave in waves:
            for name in wave:
                if store is not None and fingerprints is not None:
                    key = fingerprints.record_key(name, engine.config)
                    if store.get(key) is not None:
                        result.cached.append(name)
                        continue
                pending.add(name)

        for index, wave in enumerate(waves):
            scheduled = [name for name in wave if name in pending]
            if not scheduled:
                continue
            with obs_span("wave", index=index, size=len(scheduled)):
                for name in scheduled:
                    flow = engine.analyze_function(name)
                    fingerprint = (
                        fingerprints.record_fingerprint(name, engine.config)
                        if fingerprints is not None
                        else ""
                    )
                    result.records[name] = FunctionRecord.from_result(
                        flow, fingerprint, condition
                    )

        if store is not None and fingerprints is not None:
            for record in result.records.values():
                store.put(
                    fingerprints.record_key(record.fn_name, engine.config),
                    record.to_json_dict(),
                )

        result.seconds = time.perf_counter() - start
        registry.counter("scheduler_batches_total").inc()
        registry.histogram("stage_seconds", stage="batch").observe(result.seconds)
        return result
