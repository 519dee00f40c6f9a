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

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AnalysisConfig, MODULAR, WHOLE_PROGRAM
from repro.core.engine import FlowEngine
from repro.eval.corpus import GeneratedCrate
from repro.eval.experiments import ConditionRun, ExperimentData

# Percentile math lives in repro.eval.stats; the re-export keeps the long-time
# ``from repro.eval.perf import percentile`` import path working.
from repro.eval.stats import latency_summary_ms, percentile  # noqa: F401
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
class EngineComparison:
    """Bitset (production) vs object (referee) engine over a corpus.

    The measured unit mirrors the Figure 2 data collection exactly: for
    every local-crate function of every corpus crate, run the information
    flow analysis to fixpoint and extract the per-variable dependency-set
    sizes at exit.  Parsing/checking/lowering are shared (they are
    engine-independent), so the ratio isolates the dataflow substrate.
    Each engine is timed ``rounds`` times alternately and the best round is
    reported — the shape least sensitive to scheduler noise in CI.
    """

    condition: str
    functions: int
    rounds: int
    object_seconds: float
    bitset_seconds: float

    @property
    def speedup(self) -> float:
        if self.bitset_seconds <= 0:
            return float("inf")
        return self.object_seconds / self.bitset_seconds

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "condition": self.condition,
            "functions": self.functions,
            "rounds": self.rounds,
            "object_ms": round(self.object_seconds * 1e3, 2),
            "bitset_ms": round(self.bitset_seconds * 1e3, 2),
            "speedup": round(self.speedup, 2),
        }


def compare_engines(
    corpus: Optional[Sequence[GeneratedCrate]] = None,
    config: AnalysisConfig = MODULAR,
    scale: float = 0.15,
    rounds: int = 3,
) -> EngineComparison:
    """Measure the fig2-style end-to-end analysis wall time of each engine.

    Also asserts, while it measures, that both engines report identical
    dependency sizes for every function — the differential property the
    benchmark rides on.
    """
    from repro.eval.corpus import generate_corpus
    from repro.eval.experiments import _prepare_crate

    if corpus is None:
        corpus = generate_corpus(scale=scale)
    prepared = [_prepare_crate(crate) for crate in corpus]
    names = ("object", "bitset")
    configs = {name: dataclasses.replace(config, engine=name) for name in names}

    functions = 0
    sizes: Dict[str, Dict[Tuple[int, str], Dict[str, int]]] = {name: {} for name in names}
    best: Dict[str, float] = {name: float("inf") for name in names}
    for round_index in range(max(1, rounds)):
        for engine_name, engine_config in configs.items():
            start = time.perf_counter()
            count = 0
            for crate_index, (checked, lowered) in enumerate(prepared):
                engine = FlowEngine(checked, lowered=lowered, config=engine_config)
                for fn_name in engine.local_function_names():
                    result = engine.analyze_function(fn_name)
                    sizes[engine_name][(crate_index, fn_name)] = result.dependency_sizes()
                    count += 1
            best[engine_name] = min(best[engine_name], time.perf_counter() - start)
            functions = count
    if sizes["object"] != sizes["bitset"]:
        raise AssertionError("bitset and object engines disagree on dependency sizes")
    return EngineComparison(
        condition=config.name,
        functions=functions,
        rounds=max(1, rounds),
        object_seconds=best["object"],
        bitset_seconds=best["bitset"],
    )


def compare_engines_on_fuzz_corpus(
    count: int = 6,
    seed: int = 0,
    size: str = "medium",
    config: AnalysisConfig = MODULAR,
    rounds: int = 2,
) -> EngineComparison:
    """The fig2 engine comparison over a :mod:`repro.fuzz` generated corpus.

    Identical measurement protocol to :func:`compare_engines`, but the
    workload comes from the seeded fuzz generator — program shapes (and
    scales) the hand-built template corpus cannot reach.  The differential
    size check inside :func:`compare_engines` still runs, so this doubles as
    an engine-equivalence pass over the fuzz corpus.
    """
    from repro.eval.corpus import generate_fuzz_corpus

    corpus = generate_fuzz_corpus(count=count, seed=seed, size=size)
    return compare_engines(corpus=corpus, config=config, rounds=rounds)


def render_engine_report(comparisons: Sequence[EngineComparison]) -> str:
    """Text report of the bitset-vs-object engine benchmark."""
    lines = ["Indexed bitset engine vs object referee engine (fig2 workload):", ""]
    for cmp in comparisons:
        lines.append(
            f"  {cmp.condition:<16} {cmp.functions:4d} functions: "
            f"object {cmp.object_seconds * 1e3:8.1f} ms -> bitset "
            f"{cmp.bitset_seconds * 1e3:8.1f} ms (speedup {cmp.speedup:.2f}x)"
        )
    return "\n".join(lines)


@dataclass
class ThetaJoinBench:
    """Microbenchmark of the hottest primitive: the Θ join.

    Synthesises two dependency contexts with ``places`` tracked rows of
    ``locations_per_place`` dependencies each (disjoint halves, so every
    join does real merging) and times ``joins`` repeated joins in each
    representation.  The object engine allocates a frozenset union per
    overlapping key; the indexed engine does one bitwise-or per row.
    """

    places: int
    locations_per_place: int
    joins: int
    object_seconds: float
    bitset_seconds: float

    @property
    def speedup(self) -> float:
        if self.bitset_seconds <= 0:
            return float("inf")
        return self.object_seconds / self.bitset_seconds

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "places": self.places,
            "locations_per_place": self.locations_per_place,
            "joins": self.joins,
            "object_us_per_join": round(self.object_seconds / self.joins * 1e6, 3),
            "bitset_us_per_join": round(self.bitset_seconds / self.joins * 1e6, 3),
            "speedup": round(self.speedup, 2),
        }


def theta_join_microbenchmark(
    places: int = 48, locations_per_place: int = 24, joins: int = 2000
) -> ThetaJoinBench:
    """Time repeated Θ joins in the object and indexed representations."""
    from repro.core.theta import DependencyContext, IndexedDependencyContext
    from repro.mir.indices import BodyIndex, LocationDomain, PlaceDomain
    from repro.mir.ir import Location, Place

    all_locations = [
        Location(block, statement)
        for block in range(locations_per_place)
        for statement in range(2)
    ]

    def object_pair() -> Tuple[DependencyContext, DependencyContext]:
        left, right = DependencyContext(), DependencyContext()
        for index in range(places):
            place = Place.from_local(index)
            half = locations_per_place // 2
            left.set(place, all_locations[: half])
            right.set(place, all_locations[half : locations_per_place])
        return left, right

    domain = BodyIndex(None, PlaceDomain(), LocationDomain(sorted(all_locations)))

    def indexed_pair() -> Tuple[IndexedDependencyContext, IndexedDependencyContext]:
        left = IndexedDependencyContext(domain)
        right = IndexedDependencyContext(domain)
        for index in range(places):
            place = Place.from_local(index)
            half = locations_per_place // 2
            left.set(place, all_locations[: half])
            right.set(place, all_locations[half : locations_per_place])
        return left, right

    obj_left, obj_right = object_pair()
    start = time.perf_counter()
    for _ in range(joins):
        obj_left.join(obj_right)
    object_seconds = time.perf_counter() - start

    idx_left, idx_right = indexed_pair()
    start = time.perf_counter()
    for _ in range(joins):
        idx_left.join(idx_right)
    bitset_seconds = time.perf_counter() - start

    # Identical join results in both representations (sanity, not timing).
    joined_object = obj_left.join(obj_right)
    joined_indexed = idx_left.join(idx_right)
    assert dict(joined_object.items()) == dict(joined_indexed.items())

    return ThetaJoinBench(
        places=places,
        locations_per_place=locations_per_place,
        joins=joins,
        object_seconds=object_seconds,
        bitset_seconds=bitset_seconds,
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


@dataclass
class FocusLatency:
    """Cold vs warm focus-query latency over a corpus of cursor positions.

    Each query resolves a variable's focus entry through the session's
    cached focus table: the cold pass pays one dataflow tabulation per
    function, the warm pass (fresh sessions over the same store) serves
    every table from cache — the interactive-IDE workload the focus engine
    exists for.
    """

    condition: str
    queries: int
    cold_seconds: List[float]
    warm_seconds: List[float]

    @property
    def cold_total(self) -> float:
        return sum(self.cold_seconds)

    @property
    def warm_total(self) -> float:
        return sum(self.warm_seconds)

    @property
    def speedup(self) -> float:
        if self.warm_total <= 0:
            return float("inf")
        return self.cold_total / self.warm_total

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "condition": self.condition,
            "queries": self.queries,
            "cold_ms": dict(
                latency_summary_ms(self.cold_seconds, fractions=(0.50, 0.95)),
                total=round(self.cold_total * 1e3, 2),
            ),
            "warm_ms": dict(
                latency_summary_ms(self.warm_seconds, fractions=(0.50, 0.95)),
                total=round(self.warm_total * 1e3, 2),
            ),
            "speedup": round(self.speedup, 1),
        }


def measure_focus_latency(
    corpus: Optional[Sequence[GeneratedCrate]] = None,
    config: AnalysisConfig = MODULAR,
    scale: float = 0.15,
    store=None,
    max_queries_per_function: int = 3,
) -> FocusLatency:
    """Measure per-query focus latency cold (empty store) and warm (cached).

    Cursor targets are every named local of every corpus function (capped
    per function), queried through :meth:`AnalysisSession.focus`.  The warm
    pass uses fresh sessions over the same store, so the speedup measures
    the focus-table cache specifically, not in-process memoisation.
    """
    from repro.eval.corpus import generate_corpus
    from repro.service.cache import SummaryStore
    from repro.service.session import AnalysisSession

    if corpus is None:
        corpus = generate_corpus(scale=scale)
    if store is None:
        store = SummaryStore(max_entries=1 << 16)

    def one_pass() -> List[float]:
        latencies: List[float] = []
        for crate in corpus:
            session = AnalysisSession(store=store, local_crate=crate.name)
            session.open_unit(crate.name, crate.source)
            for fn_name in session.function_names():
                targets = session.variables_of(fn_name)[:max_queries_per_function]
                for variable in targets:
                    start = time.perf_counter()
                    session.focus(function=fn_name, variable=variable, config=config)
                    latencies.append(time.perf_counter() - start)
        return latencies

    cold = one_pass()
    warm = one_pass()
    return FocusLatency(
        condition=config.name,
        queries=len(cold),
        cold_seconds=cold,
        warm_seconds=warm,
    )


def render_focus_latency_report(latencies: Sequence[FocusLatency]) -> str:
    """Text report of the focus engine's cold-vs-warm latency benchmark."""
    lines = ["Focus engine: cold vs warm cursor-query latency:", ""]
    for lat in latencies:
        row = lat.to_json_dict()
        cold, warm = row["cold_ms"], row["warm_ms"]
        lines.append(
            f"  {lat.condition:<16} {lat.queries:4d} queries: "
            f"cold p50 {cold['p50']:7.3f} ms / p95 {cold['p95']:7.3f} ms -> "
            f"warm p50 {warm['p50']:7.3f} ms / p95 {warm['p95']:7.3f} ms "
            f"(speedup {row['speedup']}x)"
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
