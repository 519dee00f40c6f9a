"""The focus engine: span-precise, cursor-driven slicing.

The paper's headline application is an IDE "focus mode": put the cursor on
an expression and see everything it flows to and from, highlighted as source
ranges.  This package turns the per-function dataflow results into that
experience:

* :mod:`repro.focus.spans` — span-set algebra (normalise, union, project),
* :mod:`repro.focus.resolve` — ``(line, col)`` cursor → enclosing MIR place,
* :mod:`repro.focus.table` — precomputed all-places focus tables,
* :mod:`repro.focus.render` — terminal highlight rendering.

Clients reach the engine through the service protocol's ``focus`` method
(:mod:`repro.service.protocol`), whose cursors may be unit-relative.
"""

from repro.focus.resolve import FocusTarget, resolve_cursor
from repro.focus.spans import (
    lines_of_spans,
    location_span,
    normalize_spans,
    spans_of_locations,
)
from repro.focus.table import FocusEntry, FocusTable
from repro.focus.render import render_focus_markers, render_focus_response

__all__ = [
    "FocusEntry",
    "FocusTable",
    "FocusTarget",
    "lines_of_spans",
    "location_span",
    "normalize_spans",
    "render_focus_markers",
    "render_focus_response",
    "resolve_cursor",
    "spans_of_locations",
]
