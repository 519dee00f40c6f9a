"""Cursor resolution: from a ``(line, col)`` position to a MIR place.

The IDE contract of the paper's focus mode starts here: the user puts the
cursor somewhere in the source, and the engine must decide *which place* they
mean.  Lowering already decided what every place expression denotes: each
lowered :class:`~repro.mir.ir.Body` records every place expression's span
with the place it lowered to (auto-derefs inserted, every name looked up in
the scope of its use), so the resolved place is exactly the one the dataflow
analysis tracked, and a shadowed name answers the binding in scope.

The winning place is the one of the **innermost** place expression
containing the cursor: on ``*point.x`` a cursor over ``x`` resolves to the
field, one over ``point`` to the base variable, and one on the ``*`` to the
whole deref.  A cursor on a binding's name (a parameter or any ``let``)
resolves to that binding's local itself.

A :class:`CursorIndex` makes finding the candidates a lookup: the body
under the cursor is found by bisection over the bodies' starts, and only
the binding names and place expressions on the cursor's line are tested.
The analysis service keeps one index per workspace generation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import QueryError, Span
from repro.mir.ir import Body, Place
from repro.mir.lower import LoweredProgram
from repro.obs import span as obs_span


@dataclass(frozen=True)
class FocusTarget:
    """The result of resolving a cursor: a place within one function."""

    fn_name: str
    place: Place
    label: str          # the place rendered with source-level names, e.g. "(*p).0"
    span: Span          # span of the expression the cursor hit
    defining_span: Span  # span of the base variable's definition


class _BodyLines(NamedTuple):
    """One body's cursor targets, each under every line its span covers."""

    bindings: Dict[int, List[Tuple[Span, Place]]]  # named locals, in local order
    places: Dict[int, List[Tuple[Span, Place]]]  # in the order lowering recorded them


def _add_by_line(table: dict, span: Span, entry) -> None:
    for line in range(span.start_line, span.end_line + 1):
        table.setdefault(line, []).append(entry)


class CursorIndex:
    """Where a cursor can land in one lowered program, each table built on
    first use.

    The function table lists the bodies by span start.  Items never nest,
    so the last body starting at or before a cursor is the only one that
    can hold it.  A body's own table, built on the first query into it,
    files the names of its named locals and the place expressions lowering
    recorded whose base local has a name, under every line they cover, so
    a query tests only the entries on its line.

    Readers on several threads may share one index.  Each table is built
    whole, published with one assignment and never changed afterwards, so
    a reader sees either no table or a complete one; two threads racing to
    build the same table build equal ones, and keeping either is right.
    """

    __slots__ = ("_lowered", "_functions", "_lines")

    def __init__(self, lowered: LoweredProgram):
        self._lowered = lowered
        self._functions: Optional[Tuple[List[Tuple[int, int]], List[Body]]] = None
        self._lines: Dict[str, _BodyLines] = {}

    def functions(self) -> Tuple[List[Tuple[int, int]], List[Body]]:
        """The bodies sorted by span start, and those starts."""
        table = self._functions
        if table is None:
            with obs_span("cursor_index") as sp:
                bodies = sorted(self._lowered.bodies.values(), key=lambda body: body.span[:2])
                table = ([body.span[:2] for body in bodies], bodies)
                if sp is not None:
                    sp.set(functions=len(bodies))
            self._functions = table
        return table

    def lines_of(self, body: Body) -> _BodyLines:
        """``body``'s binding names and place expressions by line."""
        lines = self._lines.get(body.fn_name)
        if lines is None:
            with obs_span("cursor_index", fn=body.fn_name) as sp:
                lines = _BodyLines({}, {})
                for local in body.user_locals():
                    entry = (local.span, Place.from_local(local.index))
                    _add_by_line(lines.bindings, local.span, entry)
                expressions = 0
                for span, place in body.place_exprs:
                    if body.locals[place.local].name is not None:
                        _add_by_line(lines.places, span, (span, place))
                        expressions += 1
                if sp is not None:
                    sp.set(expressions=expressions)
            self._lines[body.fn_name] = lines
        return lines


def resolve_function_at(index: CursorIndex, line: int, col: int) -> Optional[Body]:
    """The body of the function that encloses the cursor, if any."""
    starts, bodies = index.functions()
    at = bisect_right(starts, (line, col)) - 1
    if at >= 0 and bodies[at].span.contains(line, col):
        return bodies[at]
    return None


def resolve_cursor(
    lowered: LoweredProgram,
    line: int,
    col: int,
    line_offset: int = 0,
    index: Optional[CursorIndex] = None,
) -> FocusTarget:
    """Resolve a cursor position to the enclosing MIR place.

    ``line_offset`` moves ``line`` into the program's lines, for a cursor
    given relative to one unit of a joined workspace; error messages name
    the position as given.  ``index`` is the :class:`CursorIndex` of
    ``lowered`` that a caller keeps across queries; without one, this
    query builds its own.

    Raises :class:`QueryError` with a typed code when the position lies
    outside every function body (``position_out_of_range``) or inside one but
    not on any place expression (``no_place_at_position``).
    """
    if line < 1 or col < 1:
        raise QueryError(
            f"position {line}:{col} is not a valid 1-based source position",
            code=QueryError.POSITION_OUT_OF_RANGE,
        )
    if index is None:
        index = CursorIndex(lowered)
    at = line + line_offset
    body = resolve_function_at(index, at, col)
    if body is None:
        raise QueryError(
            f"position {line}:{col} is not inside any function body",
            code=QueryError.POSITION_OUT_OF_RANGE,
        )

    # A cursor on a binding's name (a parameter or a `let`) wins outright;
    # else the innermost place expression does.  Lowering records an
    # expression after those inside it, so among equally tight ones the
    # outermost wins.
    lines = index.lines_of(body)
    hit = next((entry for entry in lines.bindings.get(at, ()) if entry[0].contains(at, col)), None)
    if hit is None:
        for entry in lines.places.get(at, ()):
            span = entry[0]
            if span.contains(at, col) and (hit is None or span.tightness() <= hit[0].tightness()):
                hit = entry
    if hit is None:
        raise QueryError(
            f"no place expression at {line}:{col} in function {body.fn_name!r}",
            code=QueryError.NO_PLACE_AT_POSITION,
        )
    span, place = hit
    return FocusTarget(
        fn_name=body.fn_name,
        place=place,
        label=place.pretty(body),
        span=span,
        defining_span=body.locals[place.local].span,
    )
