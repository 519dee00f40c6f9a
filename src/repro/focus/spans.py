"""Span-set algebra for the focus engine.

The focus engine's currency is the **span set**: a normalised collection of
character-precise source ranges.  Slices and focus-table entries are sets of
MIR locations; this module maps them onto the source text (via the spans the
lowering attached to every statement and terminator) and provides the
set-level operations — normalisation, union, membership, line projection —
that the renderer, the server, and the property tests share.

The served path reads each location's span from its body's span table
(:meth:`~repro.mir.ir.Body.location_spans`, built once per body) and
renders a span set and its lines in one pass, already in the lines of the
client's unit.  :func:`location_span` and :func:`normalize_spans` read each
instruction's own span and share no code with that path: they are the
referee the focus oracle checks it against.

Spans follow the lexer's convention: 1-based lines and columns, half-open in
columns (``end_col`` is the column *after* the last character).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import DUMMY_SPAN, Span
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


def span_to_json(span: Span, line_offset: int) -> List[int]:
    """``[start_line, start_col, end_line, end_col]``, each line counted
    from ``line_offset`` (a unit's offset in the joined source)."""
    return [span[0] - line_offset, span[1], span[2] - line_offset, span[3]]


def span_set_to_json(
    spans: Sequence[Span], line_offset: int
) -> Tuple[List[List[int]], List[int]]:
    """A normalised span set's JSON spans and the sorted lines they touch,
    written in one pass, every line counted from ``line_offset``.

    Normalised spans are sorted and disjoint, so a span never starts on a
    line before the previous one's last line, and the lines come out
    sorted and distinct: ``lines_of_spans`` of the same set, shifted.
    """
    out: List[List[int]] = []
    lines: List[int] = []
    for start_line, start_col, end_line, end_col in spans:
        start_line -= line_offset
        end_line -= line_offset
        out.append([start_line, start_col, end_line, end_col])
        if lines and lines[-1] >= start_line:
            start_line = lines[-1] + 1
        lines.extend(range(start_line, end_line + 1))
    return out, lines


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


def spans_of_locations(
    body: Body, locations: Iterable[Sequence[int]]
) -> Tuple[Span, ...]:
    """Normalised source spans of a set of MIR locations.

    ``locations`` are :class:`~repro.mir.ir.Location` tuples or the
    ``[block, statement]`` pairs a focus table stores.  Each is looked up in
    the body's span table; synthetic locations (negative blocks) and
    instructions without a position have no span.  Equal to
    ``normalize_spans(location_span(body, loc) for loc in locations)``, which
    the focus oracle checks.

    The char-precise analogue of
    :func:`repro.apps.slicer.lines_of_locations`: where that helper fades
    whole lines, this returns exact ranges suitable for IDE highlights.
    """
    table = body.location_spans()
    spans = {table[block][statement] for block, statement in locations if block >= 0}
    spans.discard(DUMMY_SPAN)
    # Spans are tuples, so they sort by start then end; one pass merges
    # each span into the previous one when it starts at or before its end.
    merged: List[Span] = []
    for span in sorted(spans):
        if merged and span[:2] <= merged[-1][2:]:
            last = merged[-1]
            if span[2:] > last[2:]:
                merged[-1] = Span(last[0], last[1], span[2], span[3])
        else:
            merged.append(span)
    return tuple(merged)
