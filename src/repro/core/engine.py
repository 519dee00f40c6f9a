"""Program-level analysis engine: the public entry point of the library.

A :class:`FlowEngine` owns a checked and lowered program plus one analysis
configuration, and produces :class:`~repro.core.analysis.FunctionFlowResult`
objects on demand; it keeps none of them, so a result lives as long as its
caller holds it.  It also implements the recursive whole-program summary
provider used by the ``Whole-program`` evaluation condition: callee bodies
are analysed on demand (memoised), but only when they live in the same crate
as the analysis root — calls into other crates always fall back to the
modular approximation, reproducing the paper's constraint that "the only
available definitions are those within the package being analyzed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.borrowck.signatures import summarize_signature
from repro.core.analysis import FunctionFlowAnalysis, FunctionFlowResult
from repro.core.config import AnalysisConfig
from repro.core.summaries import WholeProgramSummary, summary_from_exit_state
from repro.errors import AnalysisError
from repro.lang.ast import FnSig, Program
from repro.lang.parser import parse_program
from repro.lang.typeck import CheckedProgram, check_program
from repro.mir.callgraph import CallGraph, build_call_graph
from repro.mir.ir import Body
from repro.mir.lower import LoweredProgram, lower_program


# Per parameter index, the field paths of its mutable references.
MutableRefPaths = Dict[int, Tuple[Tuple[int, ...], ...]]


def mutable_ref_paths(
    signatures: Dict[str, FnSig], cache: Dict[str, MutableRefPaths], fn_name: str
) -> MutableRefPaths:
    """Per parameter of ``fn_name``, the paths of its mutable references,
    memoised in ``cache``."""
    if fn_name not in cache:
        sig = signatures.get(fn_name)
        paths: MutableRefPaths = {}
        if sig is not None:
            summary = summarize_signature(sig)
            for index in range(sig.arity()):
                refs = summary.mutable_refs_of_param(index)
                if refs:
                    paths[index] = tuple(info.path for info in refs)
        cache[fn_name] = paths
    return cache[fn_name]


class RecursiveSummaryProvider:
    """Computes whole-program call summaries by recursively analysing callees.

    Recursion is bounded by ``config.max_whole_program_depth`` and broken on
    call cycles; in both cases ``summary_for`` returns ``None`` and the caller
    uses the modular rule instead, matching Flowistry's behaviour.  Only
    callees of the engine's local crate are analysed.

    Summaries are memoised for the provider's lifetime, which is its
    engine's: one program, one configuration.  Memoised results must be
    indistinguishable from fresh recursion, so two rules apply.  Only
    *complete* summaries are memoised: a summary whose computation hit the
    depth bound, or broke a call cycle entered higher up the stack, depends
    on where the recursion started — a different analysis root could
    compute a more precise one.  And a complete summary is only *served*
    when the remaining depth budget could have computed it fresh (its
    recorded computation height fits below the bound); otherwise the
    recursion proceeds as if the memo were empty and truncates exactly
    where a cold run would.
    """

    def __init__(self, engine: "FlowEngine"):
        # Hold the engine's parts, not the engine: the engine holds its
        # provider, so a back-reference would make every engine cyclic
        # garbage.  The mutable-reference-path cache is shared as the dict
        # itself, because a bound method would hold the engine too.
        self.lowered = engine.lowered
        self.signatures = engine.signatures
        self.config = engine.config
        self._mutable_ref_paths = engine._mutable_ref_paths
        self.root_crate = engine.local_crate
        self._cache: Dict[str, Optional[WholeProgramSummary]] = {}
        # Computation height (number of stack frames a fresh recursion
        # needs) per complete cached summary.
        self._heights: Dict[str, int] = {}
        self._in_progress: Set[str] = set()
        # The recursion stack: [callee name, tainted?, height] per frame.
        self._stack: List[List[object]] = []

    def is_crate_boundary(self, callee: str) -> bool:
        """Whether calling ``callee`` crosses the crate boundary (the Section
        5.4.2 study): its body is absent or lives in another crate."""
        body = self.lowered.body(callee)
        return body is None or body.crate != self.root_crate

    def _taint_all(self) -> None:
        """Mark every active frame as context-dependent.

        After a depth-bound fallback, any frame computed from a shallower
        start would have had budget to recurse further; after a cycle-break,
        every active frame's result depends on where the recursion entered
        the cycle (the break lands at the inherited in-progress position).
        Either way, none of the summaries on the stack may be cached.
        """
        for frame in self._stack:
            frame[1] = True

    def _fits_budget(self, height: int) -> bool:
        """Whether a fresh recursion of ``height`` frames would complete
        without hitting the depth bound from the current stack."""
        return len(self._stack) + height <= self.config.max_whole_program_depth

    def _bump_parent(self, child_height: int) -> None:
        if self._stack:
            frame = self._stack[-1]
            frame[2] = max(frame[2], child_height + 1)

    def summary_for(self, callee: str) -> Optional[WholeProgramSummary]:
        """A whole-program summary for ``callee``, or ``None`` to force the
        modular approximation (unknown body, crate boundary, recursion)."""
        if callee in self._cache:
            cached = self._cache[callee]
            if cached is None:
                return None  # negative entry: crate boundary
            if self._fits_budget(self._heights[callee]):
                self._bump_parent(self._heights[callee])
                return cached
            # Not enough budget left: recompute below, truncating exactly
            # where a fresh recursion would.
        if self.is_crate_boundary(callee):
            self._cache[callee] = None
            return None
        if callee in self._in_progress:
            # Call cycle: fall back to the modular approximation.
            self._taint_all()
            return None
        if len(self._stack) >= self.config.max_whole_program_depth:
            self._taint_all()
            return None

        body = self.lowered.body(callee)
        assert body is not None
        self._in_progress.add(callee)
        frame: List[object] = [callee, False, 1]
        self._stack.append(frame)
        try:
            result = FunctionFlowAnalysis(
                body=body,
                signatures=self.signatures,
                config=self.config,
                provider=self,
            ).run()
            summary = summary_from_exit_state(
                body=body,
                exit_theta=result.exit_theta,
                mutable_ref_paths=mutable_ref_paths(
                    self.signatures, self._mutable_ref_paths, callee
                ),
            )
        finally:
            self._stack.pop()
            self._in_progress.discard(callee)

        height = int(frame[2])
        if not frame[1]:
            self._cache[callee] = summary
            self._heights[callee] = height
        self._bump_parent(height)
        return summary


@dataclass
class ProgramFlowResult:
    """Results of analysing every function of the local crate."""

    config: AnalysisConfig
    results: Dict[str, FunctionFlowResult] = field(default_factory=dict)

    def function_names(self) -> List[str]:
        return sorted(self.results)

    def result(self, name: str) -> FunctionFlowResult:
        return self.results[name]

    def dependency_sizes(self) -> Dict[Tuple[str, str], int]:
        """(function, variable) → dependency set size at exit.

        This is the raw data behind Figures 2–4: one entry per analysed
        variable per function.
        """
        out: Dict[Tuple[str, str], int] = {}
        for fn_name, result in self.results.items():
            for var, size in result.dependency_sizes().items():
                out[(fn_name, var)] = size
        return out

    def total_variables(self) -> int:
        return len(self.dependency_sizes())


class FlowEngine:
    """Analyse a whole MiniRust program under one configuration."""

    def __init__(
        self,
        checked: CheckedProgram,
        lowered: Optional[LoweredProgram] = None,
        config: Optional[AnalysisConfig] = None,
    ):
        self.checked = checked
        self.lowered = lowered if lowered is not None else lower_program(checked)
        self.config = config or AnalysisConfig()
        self.signatures: Dict[str, FnSig] = checked.signatures
        self._call_graph: Optional[CallGraph] = None
        self._mutable_ref_paths: Dict[str, MutableRefPaths] = {}
        self._provider = RecursiveSummaryProvider(self)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_program(cls, program: Program, config: Optional[AnalysisConfig] = None) -> "FlowEngine":
        checked = check_program(program)
        return cls(checked, config=config)

    @classmethod
    def from_source(cls, source: str, config: Optional[AnalysisConfig] = None) -> "FlowEngine":
        return cls.from_program(parse_program(source), config=config)

    # -- program structure ---------------------------------------------------------

    @property
    def program(self) -> Program:
        return self.checked.program

    @property
    def local_crate(self) -> str:
        return self.program.local_crate

    @property
    def call_graph(self) -> CallGraph:
        if self._call_graph is None:
            self._call_graph = build_call_graph(self.lowered)
        return self._call_graph

    def local_function_names(self) -> List[str]:
        return sorted(body.fn_name for body in self.lowered.local_bodies())

    def body(self, name: str) -> Optional[Body]:
        return self.lowered.body(name)

    def mutable_ref_paths(self, fn_name: str) -> MutableRefPaths:
        """Per parameter, the paths of its mutable references (cached)."""
        return mutable_ref_paths(self.signatures, self._mutable_ref_paths, fn_name)

    # -- analysis -------------------------------------------------------------------

    def analyze_function(self, name: str) -> FunctionFlowResult:
        """Analyse one function.  Each call runs the analysis afresh; only
        the whole-program provider's callee summaries are memoised."""
        body = self.lowered.body(name)
        if body is None:
            raise AnalysisError(f"no body available for function {name!r}")
        return FunctionFlowAnalysis(
            body=body,
            signatures=self.signatures,
            config=self.config,
            provider=self._provider,
        ).run()

    def analyze_local_crate(self) -> ProgramFlowResult:
        """Analyse every function of the local crate (the evaluation's unit)."""
        program_result = ProgramFlowResult(config=self.config)
        for name in self.local_function_names():
            program_result.results[name] = self.analyze_function(name)
        return program_result

    def analyze_all(self) -> ProgramFlowResult:
        """Analyse every function with a body, across all crates."""
        program_result = ProgramFlowResult(config=self.config)
        for name in sorted(self.lowered.bodies):
            program_result.results[name] = self.analyze_function(name)
        return program_result


def analyze_program(
    program: Program, config: Optional[AnalysisConfig] = None
) -> ProgramFlowResult:
    """Check, lower, and analyse every local-crate function of ``program``."""
    return FlowEngine.from_program(program, config=config).analyze_local_crate()


def analyze_source(source: str, config: Optional[AnalysisConfig] = None) -> ProgramFlowResult:
    """Parse, check, lower, and analyse MiniRust source text."""
    return FlowEngine.from_source(source, config=config).analyze_local_crate()
