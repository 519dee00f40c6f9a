"""Span-set algebra for the focus engine.

The focus engine's currency is the **span set**: a normalised collection of
character-precise source ranges.  Slices and focus-table entries are sets of
MIR locations; this module maps them onto the source text (via the spans the
lowering attached to every statement and terminator) and provides the
set-level operations — normalisation, union, membership, line projection —
that the renderer, the server, and the property tests share.

Spans follow the lexer's convention: 1-based lines and columns, half-open in
columns (``end_col`` is the column *after* the last character).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.errors import Span
from repro.mir.ir import Body, Location


def normalize_spans(spans: Iterable[Span]) -> Tuple[Span, ...]:
    """Sort spans and merge the ones that overlap or touch.

    Dummy spans are dropped.  The result is canonical: two span collections
    covering the same characters normalise to the same tuple, which is what
    makes warm (cache-served) focus responses byte-equal to cold ones.
    """
    real = sorted(
        (s for s in spans if not s.is_dummy()),
        key=lambda s: (s.start_line, s.start_col, s.end_line, s.end_col),
    )
    merged: List[Span] = []
    for span in real:
        if merged and (span.start_line, span.start_col) <= (
            merged[-1].end_line,
            merged[-1].end_col,
        ):
            merged[-1] = merged[-1].merge(span)
        else:
            merged.append(span)
    return tuple(merged)


def lines_of_spans(spans: Iterable[Span]) -> FrozenSet[int]:
    """Every source line touched by the span set (for line-level fallbacks)."""
    lines: Set[int] = set()
    for span in spans:
        if span.is_dummy():
            continue
        lines.update(range(span.start_line, span.end_line + 1))
    return frozenset(lines)


def spans_to_json(spans: Iterable[Span]) -> List[List[int]]:
    """Span set as ``[[start_line, start_col, end_line, end_col], ...]``."""
    return [list(span.to_tuple()) for span in spans]


def location_span(body: Body, location: Location) -> Span:
    """The source span of the instruction at ``location``.

    Synthetic locations (negative blocks, e.g. the analysis' argument tags)
    have no source position and map to a dummy span.
    """
    if location.block < 0 or location.block >= len(body.blocks):
        return Span()
    instruction = body.instruction_at(location)
    span = getattr(instruction, "span", None)
    return span if span is not None else Span()


def spans_of_locations(body: Body, locations: Iterable[Location]) -> Tuple[Span, ...]:
    """Normalised source spans of a set of MIR locations.

    The char-precise analogue of
    :func:`repro.apps.slicer.lines_of_locations`: where that helper fades
    whole lines, this returns exact ranges suitable for IDE highlights.
    """
    return normalize_spans(location_span(body, loc) for loc in locations)
