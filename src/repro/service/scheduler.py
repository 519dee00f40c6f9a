"""Batch scheduler: topological waves over the call graph, optionally fanned
out across a process pool.

Functions are grouped into *waves*: every function in a wave has all of its
in-batch callees in earlier waves, so summaries are available bottom-up (the
order that makes the serial whole-program pass linear instead of quadratic)
and the functions within one wave are mutually independent — the unit of
parallelism.  Small batches run serially: for the paper's ~370µs-median
per-function analyses, process start-up dwarfs the work until the batch is
reasonably large.

The parallel path re-parses the workspace once per worker process (MIR bodies
hold richly-linked AST/type objects; shipping source text is both cheaper and
version-proof), so it pays off for batch analysis of whole crates, which is
exactly what ``warm`` requests are.  Any pool failure — sandboxes that forbid
``fork``, pickling regressions — degrades to the serial path rather than
failing the request.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import CallGraph
from repro.obs import metrics as obs_metrics
from repro.obs import remote as obs_remote
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


def run_waves(
    worker,
    waves: Sequence[Sequence],
    *,
    max_workers: Optional[int] = None,
    chunk_size: int = 8,
    parallel: Optional[bool] = None,
    initializer=None,
    initargs: tuple = (),
    telemetry: Optional[obs_remote.FanoutTelemetry] = None,
):
    """Fan each wave of tasks across ONE persistent process pool, with a
    barrier between waves.

    The SCC-parallel fixpoint driver: ``waves`` come from
    :func:`schedule_waves` (or any condensation of a dependency graph), so
    tasks within a wave are mutually independent — the unit of parallelism —
    while the inter-wave barrier preserves the callees-first contract that
    makes bottom-up summaries sound.  The pool persists across waves, so
    worker start-up (re-parsing the workspace) is paid once per batch, not
    once per wave.

    ``worker``/``initializer`` follow :func:`map_shards`' conventions, and so
    does the degrade contract: any pool failure falls back to running the
    same chunks serially in-process.  Returns ``(mode, wave_results, error)``
    where ``wave_results`` has one list per wave concatenating its chunk
    results in task order.

    With a :class:`repro.obs.remote.FanoutTelemetry` collector, each pool
    task additionally ships a worker-telemetry envelope: worker span
    subtrees are grafted under the dispatching wave span (one clock base),
    worker metric deltas are folded into the parent registry under a
    ``worker`` label, and per-wave utilization/straggler statistics are
    accumulated in the collector.  Serial runs feed the same chunk
    accounting, so utilization is reported in every mode.
    """
    staged = [list(wave) for wave in waves]
    total = sum(len(wave) for wave in staged)
    size = max(1, chunk_size)

    def chunked(items: List) -> List[List]:
        return [items[i : i + size] for i in range(0, len(items), size)]

    def run_serial() -> List[List]:
        if initializer is not None:
            initializer(*initargs)
        out: List[List] = []
        for index, wave in enumerate(staged):
            wave_out: List = []
            wave_started = time.perf_counter()
            with obs_span("wave", index=index, size=len(wave)):
                for chunk in chunked(wave):
                    chunk_started = time.perf_counter()
                    wave_out.extend(worker(chunk))
                    if telemetry is not None:
                        telemetry.record_local(
                            index, len(chunk), time.perf_counter() - chunk_started
                        )
            if telemetry is not None:
                telemetry.end_group(
                    index, wall_seconds=time.perf_counter() - wave_started
                )
            out.append(wave_out)
        return out

    want_parallel = (
        parallel if parallel is not None else (max_workers or 0) > 1 and total > 1
    )
    if not want_parallel:
        if telemetry is not None:
            telemetry.mode = "serial"
        return "serial", run_serial(), None
    try:
        out: List[List] = []
        pool_worker = worker
        pool_initializer = initializer
        pool_initargs = initargs
        if telemetry is not None:
            # Wrap the consumer's worker so every task returns a telemetry
            # envelope beside its results (repro.obs.remote protocol).
            telemetry.arm()
            pool_worker = obs_remote.run_telemetry_chunk
            pool_initializer = obs_remote.telemetry_init
            pool_initargs = (worker, initializer, initargs, telemetry.carrier.to_dict())
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=pool_initializer,
            initargs=pool_initargs,
        ) as pool:
            for index, wave in enumerate(staged):
                wave_out: List = []
                wave_started = time.perf_counter()
                with obs_span("wave", index=index, size=len(wave), parallel=True) as wave_span:
                    if telemetry is not None:
                        payloads = [
                            telemetry.payload({"wave": index, "chunk": j}, chunk)
                            for j, chunk in enumerate(chunked(wave))
                        ]
                        for envelope, payload in pool.map(pool_worker, payloads):
                            telemetry.absorb(envelope, wave_span, index)
                            wave_out.extend(payload)
                    else:
                        for payload in pool.map(pool_worker, chunked(wave)):
                            wave_out.extend(payload)
                if telemetry is not None:
                    telemetry.end_group(
                        index, wall_seconds=time.perf_counter() - wave_started
                    )
                out.append(wave_out)
        if telemetry is not None:
            telemetry.mode = "parallel"
        return "parallel", out, None
    except Exception as error:  # pool unavailable: degrade, don't fail
        if telemetry is not None:
            telemetry.reset()
            telemetry.mode = "serial-fallback"
        return "serial-fallback", run_serial(), f"{type(error).__name__}: {error}"


def map_shards(
    worker,
    tasks: Sequence,
    *,
    max_workers: Optional[int] = None,
    chunk_size: int = 8,
    parallel: Optional[bool] = None,
    initializer=None,
    initargs: tuple = (),
    telemetry: Optional[obs_remote.FanoutTelemetry] = None,
):
    """Fan ``tasks`` across a process pool in order-preserving chunks.

    ``worker`` must be a module-level (picklable) function taking one chunk
    (a list of tasks) and returning a list of results; ``initializer`` runs
    once per worker process.  The degrade contract matches the batch
    scheduler's: any pool failure — sandboxes that forbid ``fork``, pickling
    regressions — falls back to running the same chunks serially in-process
    (calling ``initializer`` locally first) rather than failing the request.

    Returns ``(mode, results, error)`` where mode is ``"serial"`` /
    ``"parallel"`` / ``"serial-fallback"`` and results concatenate the
    chunk results in task order.  This is the corpus-level fan-out the
    mass-evaluation harness runs on; the function-level fan-out above
    shares its shape — including the optional ``telemetry`` collector,
    which grafts worker span subtrees under the per-chunk shard spans,
    folds worker metric deltas under a ``worker`` label, and accumulates
    the shard-level utilization/straggler statistics (all chunks form one
    barrier group, index 0).
    """
    items = list(tasks)
    chunks = [items[i : i + max(1, chunk_size)] for i in range(0, len(items), max(1, chunk_size))]

    def run_serial() -> List:
        if initializer is not None:
            initializer(*initargs)
        out: List = []
        started = time.perf_counter()
        for index, chunk in enumerate(chunks):
            chunk_started = time.perf_counter()
            with obs_span("shard", index=index, size=len(chunk)):
                out.extend(worker(chunk))
            if telemetry is not None:
                telemetry.record_local(
                    0, len(chunk), time.perf_counter() - chunk_started
                )
        if telemetry is not None:
            telemetry.end_group(
                0, wall_seconds=time.perf_counter() - started, kind="shards"
            )
        return out

    want_parallel = (
        parallel if parallel is not None else (max_workers or 0) > 1 and len(items) > 1
    )
    if not want_parallel:
        if telemetry is not None:
            telemetry.mode = "serial"
        return "serial", run_serial(), None
    try:
        results: List = []
        pool_worker = worker
        pool_initializer = initializer
        pool_initargs = initargs
        if telemetry is not None:
            telemetry.arm()
            pool_worker = obs_remote.run_telemetry_chunk
            pool_initializer = obs_remote.telemetry_init
            pool_initargs = (worker, initializer, initargs, telemetry.carrier.to_dict())
        started = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=pool_initializer,
            initargs=pool_initargs,
        ) as pool:
            if telemetry is not None:
                payloads = [
                    telemetry.payload({"shard": index}, chunk)
                    for index, chunk in enumerate(chunks)
                ]
                for index, (envelope, payload) in enumerate(
                    pool.map(pool_worker, payloads)
                ):
                    # The worker's span subtree grafts under this shard span,
                    # so the merged trace shows the chunk on its worker lane.
                    with obs_span("shard", index=index, parallel=True) as shard_span:
                        telemetry.absorb(envelope, shard_span, 0)
                        results.extend(payload)
            else:
                for index, payload in enumerate(pool.map(pool_worker, chunks)):
                    with obs_span("shard", index=index, parallel=True):
                        results.extend(payload)
        if telemetry is not None:
            telemetry.end_group(
                0, wall_seconds=time.perf_counter() - started, kind="shards"
            )
            telemetry.mode = "parallel"
        return "parallel", results, None
    except Exception as error:  # pool unavailable: degrade, don't fail
        if telemetry is not None:
            telemetry.reset()
            telemetry.mode = "serial-fallback"
        return "serial-fallback", run_serial(), f"{type(error).__name__}: {error}"


# -- process-pool worker ------------------------------------------------------
#
# Worker state is rebuilt per process from (source, local_crate, config):
# engines are not picklable, and content fingerprints recomputed from the same
# source are identical across processes, so records made by workers address
# the same cache slots the parent would use.

_WORKER_ENGINE: Optional[FlowEngine] = None
_WORKER_FP: Optional[FingerprintIndex] = None


def _init_worker(source: str, local_crate: str, config_kwargs: dict) -> None:
    global _WORKER_ENGINE, _WORKER_FP
    program = parse_program(source, local_crate=local_crate)
    checked = check_program(program)
    _WORKER_ENGINE = FlowEngine(checked, config=AnalysisConfig(**config_kwargs))
    _WORKER_FP = FingerprintIndex(
        _WORKER_ENGINE.lowered,
        _WORKER_ENGINE.signatures,
        _WORKER_ENGINE.local_crate,
        _WORKER_ENGINE.call_graph,
    )


def _analyze_batch(names: List[str]) -> List[dict]:
    assert _WORKER_ENGINE is not None and _WORKER_FP is not None
    condition = config_cache_key(_WORKER_ENGINE.config)
    out: List[dict] = []
    for name in names:
        result = _WORKER_ENGINE.analyze_function(name)
        fingerprint = _WORKER_FP.record_fingerprint(name, _WORKER_ENGINE.config)
        out.append(FunctionRecord.from_result(result, fingerprint, condition).to_json_dict())
    return out


def _render_batch(names: List[str]) -> List[tuple]:
    """Analyse + pretty-render a batch (the ``repro analyze --workers`` unit).

    Returns ``(name, rendered body, dependency sizes)`` tuples so the CLI can
    reassemble its serial output byte-for-byte regardless of wave order.
    """
    from repro.mir.pretty import pretty_body

    assert _WORKER_ENGINE is not None
    out: List[tuple] = []
    for name in names:
        result = _WORKER_ENGINE.analyze_function(name)
        out.append(
            (
                name,
                pretty_body(result.body, result.annotations()),
                dict(result.dependency_sizes()),
            )
        )
    return out


@dataclass
class BatchResult:
    """Outcome of one scheduled batch."""

    mode: str  # "serial" | "parallel" | "serial-fallback"
    waves: List[List[str]]
    records: Dict[str, FunctionRecord] = field(default_factory=dict)
    cached: List[str] = field(default_factory=list)
    seconds: float = 0.0
    error: Optional[str] = None  # why a parallel request fell back, if it did
    # Worker attribution for fanned-out batches (utilization, per-worker
    # busy/cpu/rss, straggler skew) — None when no fan-out was attempted.
    fanout: Optional[dict] = None

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
            "error": self.error,
            "fanout": self.fanout,
        }


class BatchScheduler:
    """Schedules batch analysis of many functions under one configuration."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        parallel_threshold: int = 24,
        chunk_size: int = 8,
    ):
        self.max_workers = max_workers
        self.parallel_threshold = parallel_threshold
        self.chunk_size = max(1, chunk_size)

    def run(
        self,
        engine: FlowEngine,
        *,
        names: Optional[Sequence[str]] = None,
        store: Optional[SummaryStore] = None,
        fingerprints: Optional[FingerprintIndex] = None,
        source: Optional[str] = None,
        parallel: Optional[bool] = None,
    ) -> BatchResult:
        """Analyse ``names`` (default: every local function) of ``engine``'s
        program, reusing and filling ``store`` when one is given.

        ``parallel=None`` auto-selects; ``True`` forces an attempt (still
        subject to fallback); ``False`` forces serial.  The parallel path
        needs ``source`` to rebuild the program inside workers.
        """
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

        result = BatchResult(mode="serial", waves=waves)

        # Serve what the store already has; only the rest is scheduled.
        to_compute: List[str] = []
        for wave in waves:
            for name in wave:
                if store is not None and fingerprints is not None:
                    key = fingerprints.record_key(name, engine.config)
                    data = store.get(key)
                    if data is not None:
                        result.cached.append(name)
                        continue
                to_compute.append(name)

        want_parallel = (
            parallel
            if parallel is not None
            else len(to_compute) >= self.parallel_threshold
        )
        can_parallel = source is not None and (self.max_workers or 2) > 1
        if want_parallel and can_parallel:
            try:
                mode, error = self._run_parallel(engine, source, waves, set(to_compute), result)
                result.mode = mode
                result.error = error
            except Exception as error:  # worker rebuild failed: degrade, don't fail
                result.records.clear()
                result.error = f"{type(error).__name__}: {error}"
                self._run_serial(engine, waves, to_compute, fingerprints, condition, result)
                result.mode = "serial-fallback"
        else:
            self._run_serial(engine, waves, to_compute, fingerprints, condition, result)
            if parallel is True and not can_parallel:
                # An explicit parallel request was dropped: say so instead of
                # looking like a deliberately serial run.
                result.mode = "serial-fallback"
                result.error = (
                    "parallel requested but unavailable: "
                    + ("no source provided" if source is None else "max_workers == 1")
                )

        if store is not None:
            for record in result.records.values():
                key = fingerprints.record_key(record.fn_name, engine.config) if fingerprints else None
                if key is not None:
                    store.put(key, record.to_json_dict())

        result.seconds = time.perf_counter() - start
        registry.counter("scheduler_batches_total", mode=result.mode).inc()
        registry.histogram("stage_seconds", stage="batch").observe(result.seconds)
        return result

    def _run_serial(
        self,
        engine: FlowEngine,
        waves: List[List[str]],
        to_compute: Sequence[str],
        fingerprints: Optional[FingerprintIndex],
        condition: str,
        result: BatchResult,
    ) -> None:
        pending = set(to_compute)
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

    def _run_parallel(
        self,
        engine: FlowEngine,
        source: str,
        waves: List[List[str]],
        to_compute: set,
        result: BatchResult,
    ):
        """Fan the scheduled waves across :func:`run_waves`' persistent pool.

        Returns ``(mode, error)`` from the wave driver; a pool failure is
        absorbed there (the same chunks run serially in-process against a
        worker engine rebuilt from ``source``), so records are valid in every
        mode.
        """
        config_kwargs = dataclasses.asdict(engine.config)
        scheduled = [[n for n in wave if n in to_compute] for wave in waves]
        telemetry = obs_remote.FanoutTelemetry(max_workers=self.max_workers)
        mode, wave_results, error = run_waves(
            _analyze_batch,
            scheduled,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            parallel=True,
            initializer=_init_worker,
            initargs=(source, engine.local_crate, config_kwargs),
            telemetry=telemetry,
        )
        result.fanout = telemetry.to_json_dict()
        for payload in wave_results:
            for data in payload:
                record = FunctionRecord.from_json_dict(data)
                result.records[record.fn_name] = record
        return mode, error
