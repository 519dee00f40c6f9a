"""A program slicer built on the modular information flow analysis.

Reproduces the Figure 5a prototype: given a *slicing criterion* (a variable
in a function, optionally at a particular location), compute the backward
slice — every instruction that may influence the criterion — or the forward
slice — every instruction the criterion may influence — and render the
result against the source text by fading the irrelevant lines.

Slices are served from per-function :class:`~repro.focus.table.FocusTable`
tabulations: the first query against a function pays one dataflow pass and
computes *every* variable's slice in both directions; subsequent queries are
dictionary lookups.  Because the analysis is modular, tables are
per-function and cheap; this is exactly the "lightweight slices of just
within a given function" use case the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine
from repro.core.analysis import FunctionFlowResult
from repro.errors import AnalysisError, QueryError, Span
from repro.focus.table import FocusEntry, FocusTable
from repro.mir.ir import Body, Location, Place


def lines_of_locations(body: Body, locations: Iterable[Location]) -> FrozenSet[int]:
    """Source lines covered by ``locations`` of ``body``.

    Shared by the slicer and the analysis service so both render slices
    identically; synthetic locations (negative blocks) have no source span.
    """
    lines: Set[int] = set()
    for location in locations:
        if location.block < 0:
            continue
        instruction = body.instruction_at(location)
        span = getattr(instruction, "span", None)
        if span is not None and not span.is_dummy():
            for line in range(span.start_line, span.end_line + 1):
                lines.add(line)
    return frozenset(lines)


def forward_slice_locations(result: FunctionFlowResult, variable: str) -> FrozenSet[Location]:
    """Union of forward slices from every instruction that writes ``variable``.

    For parameters — which are never written inside the function — the
    criterion is the synthetic argument tag the analysis seeded at entry, so
    a cursor on a parameter still answers "where does this value flow?".
    """
    from repro.core.theta import arg_location

    local = result.body.local_by_name(variable)
    if local is None:
        raise AnalysisError(
            f"function {result.body.fn_name!r} has no variable {variable!r}"
        )
    target = Place.from_local(local.index)
    influenced: Set[Location] = set()
    if local.is_arg:
        influenced |= result.forward_slice(arg_location(local.index - 1))
        influenced.discard(arg_location(local.index - 1))
    for location in result.body.locations():
        instruction = result.body.instruction_at(location)
        written = getattr(instruction, "place", None) or getattr(
            instruction, "destination", None
        )
        if written is not None and written.conflicts_with(target):
            influenced |= result.forward_slice(location)
    return frozenset(influenced)


class SliceDirection(Enum):
    """Whether we slice backwards (influences of) or forwards (influenced by)."""

    BACKWARD = "backward"
    FORWARD = "forward"


@dataclass
class Slice:
    """The result of slicing one function on one criterion.

    ``relevant_spans`` carries the char-precise ranges the focus table
    computed; ``relevant_lines`` remains the line-level projection used by
    the Figure 5a fade rendering.
    """

    fn_name: str
    variable: str
    direction: SliceDirection
    locations: FrozenSet[Location]
    relevant_lines: FrozenSet[int]
    criterion_lines: FrozenSet[int]
    relevant_spans: Tuple[Span, ...] = ()

    def contains_line(self, line: int) -> bool:
        return line in self.relevant_lines

    def size(self) -> int:
        return len(self.locations)


class ProgramSlicer:
    """Compute intra-procedural slices of MiniRust programs."""

    def __init__(self, source: str, config: Optional[AnalysisConfig] = None):
        self.source = source
        self.engine = FlowEngine.from_source(source, config=config)
        self._tables: Dict[str, FocusTable] = {}

    # -- helpers ---------------------------------------------------------------

    def _table(self, fn_name: str) -> FocusTable:
        """The function's focus table, built once per slicer."""
        if fn_name not in self._tables:
            self._tables[fn_name] = FocusTable.build(self.engine.analyze_function(fn_name))
        return self._tables[fn_name]

    def _entry(self, fn_name: str, variable: str) -> FocusEntry:
        try:
            return self._table(fn_name).entry_for_variable(variable)
        except QueryError as error:
            raise AnalysisError(str(error)) from None

    def _lines_of_locations(
        self, result: FunctionFlowResult, locations: FrozenSet[Location]
    ) -> FrozenSet[int]:
        return lines_of_locations(result.body, locations)

    def _variable_definition_lines(self, result: FunctionFlowResult, variable: str) -> FrozenSet[int]:
        local = result.body.local_by_name(variable)
        if local is None or local.span.is_dummy():
            return frozenset()
        return frozenset(range(local.span.start_line, local.span.end_line + 1))

    # -- public API ------------------------------------------------------------------

    def backward_slice(self, fn_name: str, variable: str) -> Slice:
        """All code that may influence the final value of ``variable``."""
        result = self.engine.analyze_function(fn_name)
        entry = self._entry(fn_name, variable)
        locations = frozenset(entry.backward)
        return Slice(
            fn_name=fn_name,
            variable=variable,
            direction=SliceDirection.BACKWARD,
            locations=locations,
            relevant_lines=self._lines_of_locations(result, locations),
            criterion_lines=self._variable_definition_lines(result, variable),
            relevant_spans=entry.backward_spans,
        )

    def forward_slice(self, fn_name: str, variable: str) -> Slice:
        """All code that the value of ``variable`` may influence.

        The criterion is taken to be every instruction that writes the
        variable; the forward slice is the union of their forward slices.
        """
        result = self.engine.analyze_function(fn_name)
        entry = self._entry(fn_name, variable)
        influenced = frozenset(entry.forward)
        return Slice(
            fn_name=fn_name,
            variable=variable,
            direction=SliceDirection.FORWARD,
            locations=influenced,
            relevant_lines=self._lines_of_locations(result, influenced),
            criterion_lines=self._variable_definition_lines(result, variable),
            relevant_spans=entry.forward_spans,
        )

    # -- rendering ----------------------------------------------------------------------

    def render(self, slice_: Slice, fade_marker: str = "  ~ ", keep_marker: str = "    ") -> str:
        """Render the source with non-slice lines faded, Figure 5a style.

        Lines belonging to the sliced function that are not part of the slice
        are prefixed with ``fade_marker``; slice lines keep ``keep_marker``;
        the criterion's definition line is marked with ``>>> ``.
        """
        fn = self.engine.program.function(slice_.fn_name)
        fn_lines: Set[int] = set()
        if fn is not None and fn.body is not None and not fn.span.is_dummy():
            fn_lines = set(range(fn.span.start_line, fn.body.span.end_line + 1))

        out_lines: List[str] = []
        for line_number, text in enumerate(self.source.splitlines(), start=1):
            if line_number in slice_.criterion_lines:
                prefix = ">>> "
            elif line_number in slice_.relevant_lines:
                prefix = keep_marker
            elif line_number in fn_lines:
                prefix = fade_marker
            else:
                prefix = keep_marker
            out_lines.append(f"{prefix}{text}")
        return "\n".join(out_lines)

    def removable_lines(self, fn_name: str, variable: str) -> FrozenSet[int]:
        """Lines of ``fn_name`` that could be removed without affecting
        ``variable`` — the "comment out everything about timing" workflow
        from Figure 5a, expressed as the complement of the backward slice."""
        result = self.engine.analyze_function(fn_name)
        slice_ = self.backward_slice(fn_name, variable)
        fn = self.engine.program.function(fn_name)
        if fn is None or fn.body is None or fn.span.is_dummy():
            return frozenset()
        body_lines = set(range(fn.body.span.start_line + 1, fn.body.span.end_line))
        all_instruction_lines = self._lines_of_locations(
            result, frozenset(loc for loc in result.body.locations())
        )
        candidate = body_lines & all_instruction_lines
        return frozenset(candidate - set(slice_.relevant_lines) - set(slice_.criterion_lines))
