"""Section 5.1 performance notes: modular vs whole-program analysis cost.

The paper reports a median per-function analysis time of ~370µs and a 178×
slowdown of the naively-recursive Whole-program analysis on a function with
thousands of reachable callees (rg3d's ``GameEngine::render``).  This
benchmark reproduces both observations in shape: per-function medians for
each condition, and a super-linear slowdown of Whole-program on a deep
synthetic call graph.

It also tracks the dataflow substrate itself: the indexed bitset engine
must beat the object referee engine ≥ 2× on the fig2 end-to-end analysis
workload over the corpus, and the Θ-join microbenchmark records the raw
primitive gap.  Both are written to ``benchmarks/reports/engine_speedup.json``
so CI archives the speedup trajectory per commit.
"""

from bench_utils import record_history, write_json_report, write_report

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.core.engine import FlowEngine
from repro.eval.perf import (
    compare_deep_call_graph,
    compare_engines,
    deep_call_graph_program,
    render_engine_report,
    render_perf_report,
    theta_join_microbenchmark,
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


def test_perf_engine_speedup_and_theta_join(corpus, report_dir):
    """The PR-4 acceptance gate: bitset engine ≥ 2× the object engine on the
    fig2 end-to-end corpus analysis, reported as a JSON CI artifact."""
    comparisons = [
        compare_engines(corpus=corpus, config=config, rounds=5)
        for config in (MODULAR, WHOLE_PROGRAM)
    ]
    join_bench = theta_join_microbenchmark()

    report = render_engine_report(comparisons)
    report += (
        f"\n\n  theta-join microbenchmark: object "
        f"{join_bench.to_json_dict()['object_us_per_join']} µs/join -> bitset "
        f"{join_bench.to_json_dict()['bitset_us_per_join']} µs/join "
        f"(speedup {join_bench.speedup:.2f}x)"
    )
    write_report(report_dir, "engine_speedup", report)

    json_path = write_json_report(
        report_dir,
        "engine_speedup",
        {
            "fig2_workload": [cmp.to_json_dict() for cmp in comparisons],
            "theta_join": join_bench.to_json_dict(),
        },
    )
    print(f"[benchmark JSON written to {json_path}]")
    record_history(
        {
            "fig2.engine_speedup": comparisons[0].speedup,
            "fig2.object_seconds": comparisons[0].object_seconds,
            "fig2.bitset_seconds": comparisons[0].bitset_seconds,
            "theta_join.speedup": join_bench.speedup,
            "theta_join.object_us_per_join": join_bench.object_seconds
            / join_bench.joins
            * 1e6,
            "theta_join.bitset_us_per_join": join_bench.bitset_seconds
            / join_bench.joins
            * 1e6,
        }
    )

    modular = comparisons[0]
    assert modular.speedup >= 2.0, (
        f"indexed engine must be >= 2x the object engine on the fig2 "
        f"workload, got {modular.speedup:.2f}x"
    )
    # Whole-program shares the recursion machinery across engines, so its
    # ratio is structurally smaller and noisier; it must still be a clear win.
    assert comparisons[1].speedup >= 1.2
    assert join_bench.speedup >= 2.0


def test_perf_modular_analysis_of_single_function(benchmark):
    """Wall-clock of analysing one mid-sized function under Modular —
    the per-function unit the paper's 370µs median refers to."""
    source = deep_call_graph_program(depth=3, fanout=2)
    program = parse_program(source, local_crate="engine")
    engine = FlowEngine.from_program(program, config=MODULAR)

    def analyze_once():
        engine._results.clear()
        return engine.analyze_function("game_engine_render")

    result = benchmark(analyze_once)
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
