"""Performance study: modular vs whole-program analysis cost (Section 5.1).

The paper notes that the baseline (modular) analysis has a median
per-function execution time of ~370µs, while the naively recursive
Whole-program analysis can be extremely slow on functions with large call
graphs — 178× slower on ``GameEngine::render``.  This module reproduces the
*shape* of that comparison:

* :func:`median_function_time` reports the per-function analysis time over a
  corpus for any condition,
* :func:`deep_call_graph_program` generates a synthetic function whose call
  graph is a deep chain/tree of local functions (the ``GameEngine::render``
  analogue), and :func:`compare_deep_call_graph` measures the modular vs
  whole-program slowdown on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AnalysisConfig, MODULAR, WHOLE_PROGRAM
from repro.core.engine import FlowEngine
from repro.eval.corpus import GeneratedCrate
from repro.eval.experiments import ConditionRun, ExperimentData
from repro.lang.parser import parse_program


@dataclass
class PerfComparison:
    """Timing comparison between the modular and whole-program analyses."""

    function: str
    call_graph_size: int
    modular_seconds: float
    whole_program_seconds: float

    @property
    def slowdown(self) -> float:
        if self.modular_seconds <= 0:
            return float("inf")
        return self.whole_program_seconds / self.modular_seconds

    def row(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "call_graph_size": self.call_graph_size,
            "modular_ms": round(self.modular_seconds * 1e3, 2),
            "whole_program_ms": round(self.whole_program_seconds * 1e3, 2),
            "slowdown": round(self.slowdown, 1),
        }


def median_function_time(run: ConditionRun) -> float:
    """Median per-function analysis time of one condition run, in seconds."""
    return run.median_function_time()


def deep_call_graph_program(depth: int = 12, fanout: int = 2) -> str:
    """Source of a crate whose root function has a call graph of
    ``fanout**0 + fanout**1 + ... + fanout**depth`` functions.

    Each internal function calls ``fanout`` children and does a little local
    work, so the whole-program analysis must recursively analyse the whole
    tree while the modular analysis stops at the root's signature uses.
    """
    lines: List[str] = ["crate engine {", "    struct Scene { nodes: u32, lights: u32 }"]

    def emit_level(level: int, index: int) -> str:
        name = f"render_pass_{level}_{index}"
        if level >= depth:
            lines.append(f"    fn {name}(scene: &mut Scene, t: u32) -> u32 {{")
            lines.append("        scene.nodes = scene.nodes + t;")
            lines.append("        scene.nodes + scene.lights")
            lines.append("    }")
            return name
        children = [emit_level(level + 1, index * fanout + child) for child in range(fanout)]
        lines.append(f"    fn {name}(scene: &mut Scene, t: u32) -> u32 {{")
        lines.append("        let mut total = t;")
        for child in children:
            lines.append(f"        total = total + {child}(scene, total);")
        lines.append("        if total > 1000 {")
        lines.append("            scene.lights = scene.lights + 1;")
        lines.append("        }")
        lines.append("        total")
        lines.append("    }")
        return name

    # Emit leaves-first so every call target is defined (order is irrelevant
    # to the checker, but keeps the generated source readable).
    root = emit_level(0, 0)
    lines.append(f"    fn game_engine_render(scene: &mut Scene, frame: u32) -> u32 {{")
    lines.append(f"        {root}(scene, frame)")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def compare_deep_call_graph(depth: int = 6, fanout: int = 2) -> PerfComparison:
    """Measure modular vs whole-program analysis time on the deep call graph."""
    source = deep_call_graph_program(depth=depth, fanout=fanout)
    program = parse_program(source, local_crate="engine")

    modular_engine = FlowEngine.from_program(program, config=MODULAR)
    start = time.perf_counter()
    modular_engine.analyze_function("game_engine_render")
    modular_seconds = time.perf_counter() - start

    whole_engine = FlowEngine.from_program(program, config=WHOLE_PROGRAM)
    start = time.perf_counter()
    whole_engine.analyze_function("game_engine_render")
    whole_seconds = time.perf_counter() - start

    call_graph_size = len(whole_engine.call_graph.reachable_from("game_engine_render"))
    return PerfComparison(
        function="game_engine_render",
        call_graph_size=call_graph_size,
        modular_seconds=modular_seconds,
        whole_program_seconds=whole_seconds,
    )


@dataclass
class WarmColdComparison:
    """Cold vs warm corpus analysis through the incremental service.

    The cold pass analyses every function of every corpus crate through a
    fresh :class:`~repro.service.session.AnalysisSession` backed by a shared
    :class:`~repro.service.cache.SummaryStore`; the warm pass repeats it with
    *new* sessions over the same store, so parsing/checking/lowering is paid
    again but every per-function analysis is served from cache.  The speedup
    is therefore a lower bound on what a resident session achieves.
    """

    condition: str
    functions: int
    cold_seconds: float
    warm_seconds: float
    cold_hits: int
    warm_hits: int

    @property
    def speedup(self) -> float:
        if self.warm_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    def row(self) -> Dict[str, object]:
        return {
            "condition": self.condition,
            "functions": self.functions,
            "cold_ms": round(self.cold_seconds * 1e3, 2),
            "warm_ms": round(self.warm_seconds * 1e3, 2),
            "warm_hits": self.warm_hits,
            "speedup": round(self.speedup, 1),
        }


def compare_warm_cold(
    corpus: Optional[Sequence[GeneratedCrate]] = None,
    config: AnalysisConfig = MODULAR,
    scale: float = 0.15,
    store=None,
) -> WarmColdComparison:
    """Measure repeated corpus analysis with and without a warm summary cache."""
    from repro.eval.corpus import generate_corpus
    from repro.service.cache import SummaryStore
    from repro.service.session import AnalysisSession

    if corpus is None:
        corpus = generate_corpus(scale=scale)
    if store is None:
        store = SummaryStore(max_entries=1 << 16)

    def one_pass() -> Tuple[float, int, int]:
        hits = 0
        functions = 0
        start = time.perf_counter()
        for crate in corpus:
            session = AnalysisSession(store=store, local_crate=crate.name)
            session.open_unit(crate.name, crate.source)
            response = session.analyze(config=config)
            hits += response["cache_hits"]
            functions += len(response["functions"])
        return time.perf_counter() - start, hits, functions

    cold_seconds, cold_hits, functions = one_pass()
    warm_seconds, warm_hits, _ = one_pass()
    return WarmColdComparison(
        condition=config.name,
        functions=functions,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold_hits=cold_hits,
        warm_hits=warm_hits,
    )


def render_warm_cold_report(comparisons: Sequence[WarmColdComparison]) -> str:
    """Text report of the service's warm-vs-cold benchmark."""
    lines = ["Incremental service: cold vs warm corpus analysis:", ""]
    for cmp in comparisons:
        lines.append(
            f"  {cmp.condition:<16} {cmp.functions:4d} functions: "
            f"cold {cmp.cold_seconds * 1e3:8.1f} ms -> warm {cmp.warm_seconds * 1e3:8.1f} ms "
            f"({cmp.warm_hits} cache hits, speedup {cmp.speedup:.1f}x)"
        )
    return "\n".join(lines)


def render_perf_report(
    runs: Sequence[ConditionRun], deep: Optional[PerfComparison] = None
) -> str:
    """Text report of the Section 5.1 performance observations."""
    lines = ["Section 5.1 performance notes (reproduced):", ""]
    for run in runs:
        median_us = run.median_function_time() * 1e6
        lines.append(
            f"  {run.name:<16} median per-function analysis time: {median_us:9.1f} µs "
            f"({run.num_variables()} variables, {run.total_seconds:.2f}s total)"
        )
    if deep is not None:
        lines.append("")
        lines.append(
            f"  deep call graph ({deep.call_graph_size} functions reachable): "
            f"modular {deep.modular_seconds * 1e3:.1f} ms vs whole-program "
            f"{deep.whole_program_seconds * 1e3:.1f} ms "
            f"-> slowdown {deep.slowdown:.0f}x   [paper: 178x on GameEngine::render]"
        )
    return "\n".join(lines)
