"""Section 5.1 performance notes: modular vs whole-program analysis cost.

The paper reports a median per-function analysis time of ~370µs and a 178×
slowdown of the naively-recursive Whole-program analysis on a function with
thousands of reachable callees (rg3d's ``GameEngine::render``).  This
benchmark reproduces both observations in shape: per-function medians for
each condition, and a super-linear slowdown of Whole-program on a deep
synthetic call graph.
"""

from bench_utils import write_report

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.core.engine import FlowEngine
from repro.eval.perf import (
    compare_deep_call_graph,
    deep_call_graph_program,
    render_perf_report,
)
from repro.lang.parser import parse_program


def test_perf_median_function_time_and_deep_call_graph(benchmark, experiment, report_dir):
    comparison = benchmark.pedantic(
        compare_deep_call_graph, kwargs={"depth": 6, "fanout": 2}, rounds=1, iterations=1
    )

    # The deep call graph has >100 reachable functions and whole-program pays
    # for all of them while modular does not.
    assert comparison.call_graph_size >= 100
    assert comparison.slowdown > 3.0, (
        f"expected a clear whole-program slowdown, got {comparison.slowdown:.1f}x"
    )

    modular_median = experiment.run(MODULAR).median_function_time()
    whole_median = experiment.run(WHOLE_PROGRAM).median_function_time()
    assert modular_median > 0
    assert whole_median >= modular_median * 0.5  # whole-program is never much cheaper

    report = render_perf_report(list(experiment.runs.values()), comparison)
    write_report(report_dir, "perf_modular_vs_whole", report)


def test_perf_modular_analysis_of_single_function(benchmark):
    """Wall-clock of analysing one mid-sized function under Modular —
    the per-function unit the paper's 370µs median refers to."""
    source = deep_call_graph_program(depth=3, fanout=2)
    program = parse_program(source, local_crate="engine")
    engine = FlowEngine.from_program(program, config=MODULAR)

    result = benchmark(engine.analyze_function, "game_engine_render")
    assert result.dependency_sizes()


def test_perf_whole_program_analysis_of_single_function(benchmark):
    """The same function analysed under Whole-program (recursing through the
    call tree) — directly comparable to the previous benchmark."""
    source = deep_call_graph_program(depth=3, fanout=2)
    program = parse_program(source, local_crate="engine")

    def analyze_once():
        engine = FlowEngine.from_program(program, config=WHOLE_PROGRAM)
        return engine.analyze_function("game_engine_render")

    result = benchmark(analyze_once)
    assert result.dependency_sizes()
