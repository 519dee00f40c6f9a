"""Observability overhead gate: instrumentation must be ~free when idle.

The tracing layer is designed around a cheap disabled path (one context-var
read per ``span()``, one module-attribute read per metric mutation).  This
benchmark enforces that design with the Figure-2-style workload — fresh
engines per round, per-function modular analysis over the corpus — comparing
the default state (metrics on, no active trace: what every untraced request
pays) against the observability kill switch (``set_enabled(False)``).

Gate: default-state time ≤ 1.05× the disabled time (best-of-rounds on both
sides), with a small absolute-slack fallback so sub-second workloads cannot
flap the ratio on scheduler noise.  The measured numbers are recorded in
``benchmarks/reports/obs_overhead.json``.
"""

from __future__ import annotations

import time

from bench_utils import write_json_report

from repro.core.config import MODULAR
from repro.core.engine import FlowEngine
from repro.eval.corpus import generate_corpus
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.obs import SamplingProfiler, is_enabled, set_enabled
from repro.obs import trace as trace_mod

ROUNDS = 6
MAX_RATIO = 1.05
ABS_SLACK_SECONDS = 0.10  # forgives sub-tenth-of-a-second jitter outright


def _workload(corpus) -> int:
    """Parse → typecheck → lower → per-function fixpoint, fresh state."""
    functions = 0
    for crate in corpus:
        program = parse_program(crate.source, local_crate=crate.name)
        checked = check_program(program)
        engine = FlowEngine(checked, config=MODULAR)
        for name in engine.local_function_names():
            engine.analyze_function(name)
            functions += 1
    return functions


def _best_of(corpus, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _workload(corpus)
        best = min(best, time.perf_counter() - start)
    return best


def test_untraced_overhead_within_five_percent(report_dir):
    corpus = generate_corpus(scale=0.15)
    assert is_enabled(), "the suite must start in the default-on state"
    _workload(corpus)  # one untimed warm-up round for both states

    # Interleave states across rounds so drift (thermal, page cache) hits
    # both sides equally; best-of keeps the least-disturbed round per state.
    enabled_best = float("inf")
    disabled_best = float("inf")
    try:
        for _ in range(ROUNDS):
            set_enabled(True)
            enabled_best = min(enabled_best, _best_of(corpus, 1))
            set_enabled(False)
            disabled_best = min(disabled_best, _best_of(corpus, 1))
    finally:
        set_enabled(True)

    ratio = enabled_best / disabled_best if disabled_best > 0 else 1.0
    report = {
        "workload": "fig2-style modular analysis, fresh engines per round",
        "rounds": ROUNDS,
        "enabled_best_seconds": round(enabled_best, 4),
        "disabled_best_seconds": round(disabled_best, 4),
        "ratio": round(ratio, 4),
        "max_ratio": MAX_RATIO,
        "abs_slack_seconds": ABS_SLACK_SECONDS,
    }
    path = write_json_report(report_dir, "obs_overhead", report)
    print(f"[obs overhead: {ratio:.3f}x; report at {path}]")

    assert (
        ratio <= MAX_RATIO or enabled_best - disabled_best <= ABS_SLACK_SECONDS
    ), (
        f"idle observability overhead too high: enabled {enabled_best:.3f}s vs "
        f"disabled {disabled_best:.3f}s ({ratio:.3f}x > {MAX_RATIO}x)"
    )


def test_detached_profiler_overhead_within_five_percent(report_dir):
    """A profiler that has come and gone must leave no residue.

    Starting a :class:`SamplingProfiler` flips the span-stack publication
    switch on (every span push/pops a per-thread stack); stopping it must
    flip the switch back off so subsequent workloads pay the original
    zero-publication path.  Interleaved best-of rounds as above.
    """
    corpus = generate_corpus(scale=0.15)
    _workload(corpus)  # warm-up

    # Exercise a full attach/detach cycle, then verify the switch is off.
    profiler = SamplingProfiler(hz=50.0).start()
    _workload(corpus)
    profiler.stop()
    assert profiler.profile.counts, "profiler attached but captured nothing"
    assert not trace_mod._PUBLISH_STACKS, "profiler detach left publication on"

    never_best = float("inf")
    after_best = float("inf")
    for _ in range(ROUNDS):
        never_best = min(never_best, _best_of(corpus, 1))
        after_best = min(after_best, _best_of(corpus, 1))

    ratio = after_best / never_best if never_best > 0 else 1.0
    report = {
        "workload": "fig2-style modular analysis after profiler detach",
        "rounds": ROUNDS,
        "never_profiled_best_seconds": round(never_best, 4),
        "after_detach_best_seconds": round(after_best, 4),
        "ratio": round(ratio, 4),
        "max_ratio": MAX_RATIO,
        "abs_slack_seconds": ABS_SLACK_SECONDS,
    }
    path = write_json_report(report_dir, "profiler_overhead", report)
    print(f"[profiler-detached overhead: {ratio:.3f}x; report at {path}]")

    assert (
        ratio <= MAX_RATIO or after_best - never_best <= ABS_SLACK_SECONDS
    ), (
        f"detached-profiler overhead too high: after {after_best:.3f}s vs "
        f"never {never_best:.3f}s ({ratio:.3f}x > {MAX_RATIO}x)"
    )
