"""Self-tests of the pipeline benchmark, on the ``tiny`` input size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import ops
import run
from tracing import ENTRY_POINTS, LAYERS, LayerTracer

HERE = Path(__file__).resolve().parent
SEED = 5


@pytest.fixture(scope="module")
def tiny_inputs():
    return {
        name: gen.generate(name, SEED, run.TINY_OPS[name], "tiny") for name in ops.WORKLOADS
    }


@pytest.fixture(scope="module")
def traced(tiny_inputs):
    """One traced pass per workload: (workload, pass result, tracer)."""
    out = {}
    for name, inputs in tiny_inputs.items():
        workload = ops.WORKLOADS[name](inputs)
        tracer = LayerTracer()
        tracer.install()
        try:
            result = run.run_pass(workload, tracer=tracer, setup_reps=1)
        finally:
            tracer.uninstall()
        out[name] = (workload, result, tracer)
    return out


def test_tiny_inputs_are_answered_correctly(traced):
    for name, (_, result, _) in traced.items():
        assert result.attempted == run.TINY_OPS[name]
        assert result.failed == 0, name


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: f"{e[0]}:{e[2]}")
def test_entry_point_called_on_the_workload_it_dominates(traced, entry):
    layer, module, attribute, workload, _ = entry
    tracer = traced[workload][2]
    assert tracer.entry_calls[(module, attribute)] >= 1, (
        f"{module}.{attribute} was never called through its wrapper on {workload}; "
        "has a binding moved out of the tracer's reach?"
    )


def test_wrappers_reach_every_import_site():
    import repro.core.analysis
    import repro.core.engine
    import repro.lang.lexer
    import repro.lang.parser
    import repro.mir.indices
    import repro.service.cache
    import repro.service.scheduler
    import repro.service.session

    sites = {
        (repro.lang.parser, "parse_program"): (
            repro.service.session, repro.service.scheduler, repro.core.engine,
        ),
        (repro.mir.indices, "index_body"): (repro.core.analysis, repro.service.cache),
        (repro.lang.lexer, "tokenize"): (repro.lang.parser,),
    }
    tracer = LayerTracer()
    tracer.install()
    try:
        for (home, name), importers in sites.items():
            wrapper = getattr(home, name)
            assert hasattr(wrapper, "__wrapped__"), name
            for module in importers:
                assert getattr(module, name) is wrapper, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (home, name), importers in sites.items():
        assert not hasattr(getattr(home, name), "__wrapped__")
        for module in importers:
            assert getattr(module, name) is getattr(home, name)


def test_layer_self_times_add_up_to_op_wall_time(traced):
    for name, (_, result, tracer) in traced.items():
        layers = sum(tracer.self_time[layer] for layer in LAYERS)
        wall = sum(result.latencies)
        assert layers == pytest.approx(tracer.op_time, rel=1e-6), name
        assert layers == pytest.approx(wall, rel=0.01), name


def test_cold_batch_reaches_both_sides_of_the_pool_threshold(traced):
    _, result, tracer = traced["cold_batch"]
    assert 0 < tracer.totals["pool_ops"] < result.attempted


def test_warm_focus_is_served_from_the_store(traced):
    tracer = traced["warm_focus"][2]
    metrics = tracer.metrics(live_objects_end=0, overhead=1.0)
    assert metrics["service.cache.hit_ratio"][0] == 1.0
    assert metrics["lang.parser.calls"][0] == 0.0


def test_edit_focus_edits_accumulate_without_repeats(tiny_inputs, traced):
    inputs = tiny_inputs["edit_focus"]
    for round_ops in inputs["rounds"]:
        texts = {name: text for name, text in inputs["units"]}
        seen = set()
        for index in round_ops:
            op = inputs["ops"][index]
            before, after = texts[op["unit"]].splitlines(), op["source"].splitlines()
            changed = [n for n, (old, new) in enumerate(zip(before, after), 1) if old != new]
            assert len(before) == len(after) and changed == [op["line"]]
            assert op["input"] not in seen
            seen.add(op["input"])
            texts[op["unit"]] = op["source"]
    metrics = traced["edit_focus"][2].metrics(live_objects_end=0, overhead=1.0)
    assert metrics["service.cache.hit_ratio"][0] == 0.0


def test_corrupted_expected_digest_counts_as_failure(tiny_inputs):
    inputs = json.loads(json.dumps(tiny_inputs["warm_focus"]))
    target = inputs["ops"][0]["cursor"]
    inputs["cursors"][target]["expected"] = "0" * 16
    result = run.run_pass(ops.WORKLOADS["warm_focus"](inputs), setup_reps=1)
    corrupted = sum(1 for op in inputs["ops"] if op["cursor"] == target)
    assert result.failed == corrupted > 0


def test_generation_is_deterministic(tiny_inputs):
    again = gen.generate("edit_focus", SEED, run.TINY_OPS["edit_focus"], "tiny")
    assert again == tiny_inputs["edit_focus"]


def test_default_seed_answers_are_committed():
    for name in ops.WORKLOADS:
        n_ops = run.op_count(name, run.DEFAULT_SECONDS, "full")
        inputs = gen.generate(name, gen.DEFAULT_SEED, n_ops, "full")
        items = gen._checked_items(name, inputs)
        missing = [item["input"] for item in items if not item["committed"]]
        assert not missing, f"{name}: {len(missing)} inputs lack a committed digest"
        wrong = [item["input"] for item in items if item["expected"] != item["referee"]]
        assert not wrong, f"{name}: referee disagrees with committed digests"


def _cli(args, cwd, timeout=170):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHASHSEED"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_cli_prints_one_json_result_last():
    out = _cli(["--workload", "edit_focus", "--seed", str(SEED), "--size", "tiny",
                "--trace", "0"], cwd=HERE.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_ops_s", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _cli(["--workload", "cold_batch", "--seed", "1", "--seconds", "15", "--trace", "0"],
               cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
