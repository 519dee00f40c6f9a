"""Batch analysis of a workspace, and the process-pool shard fan-out.

:class:`BatchScheduler` analyses every local function of one engine's
program in one pass, in :meth:`~repro.core.engine.FlowEngine.local_function_names`
order, serving each record the summary store already holds and storing the
rest.  The order changes neither an answer nor the work done: under the
modular condition a function's flow reads only its callees' signatures, and
under the whole-program condition the engine memoises every complete callee
summary, whichever caller reached it first.  The pass runs in the calling
process: per-function work is too small to repay a process pool's start-up
and pickling.

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
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span
from repro.service.cache import KIND_RECORD, FingerprintIndex, FunctionRecord, SummaryStore


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
    """Outcome of one batch."""

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
            "computed": self.computed(),
            "cached": len(self.cached),
            "seconds": round(self.seconds, 6),
        }


class BatchScheduler:
    """Batch-analyses every local function of a program under one configuration."""

    def run(
        self,
        engine: FlowEngine,
        *,
        store: SummaryStore,
        fingerprints: FingerprintIndex,
    ) -> BatchResult:
        """Analyse every local function of ``engine``'s program into ``store``:
        a function whose record ``store`` holds is served from it, any other
        is analysed and its record stored."""
        start = time.perf_counter()
        result = BatchResult()
        for name in engine.local_function_names():
            key = fingerprints.key(KIND_RECORD, name, engine.config)
            if store.get(key) is not None:
                result.cached.append(name)
                continue
            record = FunctionRecord.from_result(engine.analyze_function(name))
            store.put(key, record.to_json_dict())
            result.records[name] = record

        result.seconds = time.perf_counter() - start
        registry = obs_metrics.get_registry()
        registry.counter("scheduler_batches_total").inc()
        registry.histogram("stage_seconds", stage="batch").observe(result.seconds)
        return result
