"""Tests for the batch scheduler's one pass over a program's local
functions, and for the shard fan-out."""

from __future__ import annotations

import os
import random

import pytest
from helpers import requires_fork

from repro.core.analysis import FunctionFlowAnalysis
from repro.core.config import MODULAR, WHOLE_PROGRAM, AnalysisConfig
from repro.core.engine import FlowEngine
from repro.eval.perf import deep_call_graph_program
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import build_call_graph
from repro.mir.lower import lower_program
from repro.obs import get_registry
from repro.service.cache import KIND_RECORD, FingerprintIndex, SummaryStore
from repro.service.scheduler import BatchScheduler, map_shards


CHAIN_SOURCE = """
fn leaf(x: u32) -> u32 {
    x + 1
}

fn mid(x: u32) -> u32 {
    leaf(x) + 2
}

fn root(x: u32) -> u32 {
    mid(x) + 3
}

fn lone(x: u32) -> u32 {
    x * 5
}
"""

CYCLE_SOURCE = """
fn ping(x: u32) -> u32 {
    if x > 0 { pong(x - 1) } else { 0 }
}

fn pong(x: u32) -> u32 {
    ping(x)
}

fn top(x: u32) -> u32 {
    ping(x)
}
"""


def engine_for(source, config=MODULAR, local_crate="main"):
    checked = check_program(parse_program(source, local_crate=local_crate))
    lowered = lower_program(checked)
    engine = FlowEngine(checked, lowered=lowered, config=config)
    fingerprints = FingerprintIndex(
        lowered, checked.signatures, checked.program.local_crate, build_call_graph(lowered)
    )
    return engine, fingerprints


class TestSerialRuns:
    def test_serial_run_fills_store_and_second_run_is_cached(self):
        engine, fingerprints = engine_for(CHAIN_SOURCE)
        store = SummaryStore()
        scheduler = BatchScheduler()

        first = scheduler.run(engine, store=store, fingerprints=fingerprints)
        assert first.mode == "serial"
        assert sorted(first.records) == ["leaf", "lone", "mid", "root"]
        assert first.cached == []

        second = scheduler.run(engine, store=store, fingerprints=fingerprints)
        assert second.computed() == 0
        assert sorted(second.cached) == ["leaf", "lone", "mid", "root"]

    def test_whole_program_serial_run(self):
        engine, fingerprints = engine_for(CHAIN_SOURCE, config=WHOLE_PROGRAM)
        store = SummaryStore()
        result = BatchScheduler().run(engine, store=store, fingerprints=fingerprints)
        assert result.computed() == 4
        sizes = result.records["root"].dependency_sizes
        assert sizes == engine.analyze_function("root").dependency_sizes()

    def test_run_reports_serial_mode(self):
        engine, fingerprints = engine_for(CHAIN_SOURCE)
        result = BatchScheduler().run(
            engine, store=SummaryStore(), fingerprints=fingerprints
        )
        assert result.mode == "serial"
        assert result.to_json_dict()["mode"] == "serial"
        assert "error" not in result.to_json_dict()


WALK_ORDER_PROGRAMS = {
    "chain": (CHAIN_SOURCE, "main"),
    "cycle": (CYCLE_SOURCE, "main"),
    "deep": (deep_call_graph_program(depth=4), "engine"),
}
WALK_ORDER_CONDITIONS = {
    "modular": MODULAR,
    "whole_program": WHOLE_PROGRAM,
    "whole_program_depth2": AnalysisConfig(whole_program=True, max_whole_program_depth=2),
}


def _walk(source, local_crate, config, order):
    """One batch over a fresh store, through an engine whose local functions
    come in ``order`` (a function of the sorted names).

    Returns each function's stored record and the names of the functions
    whose fixpoint ran, callee summaries included, sorted.
    """
    engine, fingerprints = engine_for(source, config=config, local_crate=local_crate)
    store = SummaryStore()
    names = order(engine.local_function_names())
    runs = []
    real_run = FunctionFlowAnalysis.run

    def counting_run(analysis):
        runs.append(analysis.body.fn_name)
        return real_run(analysis)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "local_function_names", lambda: names)
        patch.setattr(FunctionFlowAnalysis, "run", counting_run)
        batch = BatchScheduler().run(engine, store=store, fingerprints=fingerprints)
    assert list(batch.records) == names
    records = {name: store.get(fingerprints.key(KIND_RECORD, name, config)) for name in names}
    return records, sorted(runs)


def _shuffled(names):
    names = list(names)
    random.Random(21).shuffle(names)
    return names


@pytest.mark.parametrize("condition", WALK_ORDER_CONDITIONS, ids=str)
@pytest.mark.parametrize("program", WALK_ORDER_PROGRAMS, ids=str)
def test_walk_order_changes_no_record_and_no_work(program, condition):
    # Why warm() may walk the local functions in any one order: callers read
    # only callee signatures (modular) or memoised complete callee summaries
    # (whole-program), so neither the records nor the fixpoint runs depend
    # on which function comes first.
    source, local_crate = WALK_ORDER_PROGRAMS[program]
    config = WALK_ORDER_CONDITIONS[condition]
    orders = (sorted, lambda names: sorted(names, reverse=True), _shuffled)
    walks = [_walk(source, local_crate, config, order) for order in orders]
    records, runs = walks[0]
    assert len(records) >= 3
    for other_records, other_runs in walks[1:]:
        assert other_records == records
        assert other_runs == runs


def _double_chunk(chunk):
    """Module-level (picklable) chunk worker for the pool path."""
    return [2 * item for item in chunk]


_PARENT_PID = os.getpid()


def _flaky_chunk(chunk):
    """Fails only inside a pool process: a task bug, not a pool failure."""
    if os.getpid() != _PARENT_PID:
        raise ValueError("task bug in worker")
    return _double_chunk(chunk)


_INIT_FLAG = []


def _flag_initializer(value):
    _INIT_FLAG.append(value)


def _fallbacks() -> float:
    return get_registry().counter("scheduler_fallbacks_total").value


class TestMapShards:
    TASKS = [1, 2, 3, 4, 5, 6]

    def test_serial_preserves_task_order(self):
        mode, results, error = map_shards(_double_chunk, self.TASKS, chunk_size=4)
        assert (mode, error) == ("serial", None)
        assert results == [2, 4, 6, 8, 10, 12]

    @requires_fork
    def test_parallel_matches_serial(self):
        mode, results, error = map_shards(
            _double_chunk, self.TASKS, max_workers=2, chunk_size=2
        )
        assert (mode, error) == ("parallel", None)
        assert results == [2, 4, 6, 8, 10, 12]

    def test_unpicklable_worker_degrades_with_error(self):
        before = _fallbacks()
        mode, results, error = map_shards(
            lambda chunk: [item + 1 for item in chunk], [1, 2], max_workers=2
        )
        assert mode == "serial-fallback"
        assert "pickle" in error
        assert results == [2, 3]
        assert _fallbacks() == before + 1

    @requires_fork
    def test_task_exception_propagates_with_worker_traceback(self):
        before = _fallbacks()
        with pytest.raises(ValueError, match="task bug in worker") as raised:
            map_shards(_flaky_chunk, [1, 2, 3, 4], max_workers=2, chunk_size=2)
        # The pool attaches the worker-side traceback as the cause.
        assert "_flaky_chunk" in str(raised.value.__cause__)
        assert _fallbacks() == before

    def test_serial_path_runs_initializer_in_process(self):
        _INIT_FLAG.clear()
        mode, results, _ = map_shards(
            _double_chunk,
            [7],
            max_workers=2,
            initializer=_flag_initializer,
            initargs=("ready",),
        )
        assert mode == "serial"
        assert _INIT_FLAG == ["ready"]
        assert results == [14]

    def test_empty_input(self):
        mode, results, error = map_shards(_double_chunk, [])
        assert (mode, results, error) == ("serial", [], None)
