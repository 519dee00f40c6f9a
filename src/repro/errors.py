"""Diagnostics and source-location tracking shared by every compiler stage.

The reproduction follows the paper's pipeline: surface MiniRust source is
lexed, parsed, type checked, lowered to a MIR-style control-flow graph, and
then analyzed for information flow.  Every stage reports problems through the
same :class:`Diagnostic` type so that tools built on top (the slicer, the IFC
checker, the evaluation harness) can surface errors uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """A half-open region of source text, tracked as line/column pairs.

    Lines and columns are 1-based, matching what editors display.  ``Span``
    objects are attached to tokens, AST nodes, and MIR locations so that
    analysis results (for example a backward slice) can be mapped back to the
    source the user wrote.
    """

    start_line: int = 0
    start_col: int = 0
    end_line: int = 0
    end_col: int = 0

    @staticmethod
    def point(line: int, col: int) -> "Span":
        """Create a zero-width span at a single position."""
        return Span(line, col, line, col)

    def merge(self, other: "Span") -> "Span":
        """Return the smallest span covering both ``self`` and ``other``."""
        if self.is_dummy():
            return other
        if other.is_dummy():
            return self
        start = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        end = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return Span(start[0], start[1], end[0], end[1])

    def is_dummy(self) -> bool:
        """True when the span carries no real position information."""
        return self == DUMMY_SPAN

    def contains_line(self, line: int) -> bool:
        """True when ``line`` is covered by this span."""
        return self.start_line <= line <= self.end_line

    def contains(self, line: int, col: int) -> bool:
        """Whether a 1-based cursor position falls inside this span.

        Spans are half-open in columns (``end_col`` is the column *after* the
        last character, matching the lexer), so a cursor sitting on the first
        character of a token hits it and one sitting just past it does not.
        Dummy spans contain nothing.
        """
        if self.is_dummy():
            return False
        return (self.start_line, self.start_col) <= (line, col) < (self.end_line, self.end_col)

    def contains_span(self, other: "Span") -> bool:
        """Whether ``other`` lies entirely within this span."""
        if self.is_dummy() or other.is_dummy():
            return False
        return (
            (self.start_line, self.start_col) <= (other.start_line, other.start_col)
            and (other.end_line, other.end_col) <= (self.end_line, self.end_col)
        )

    def tightness(self) -> Tuple[int, int]:
        """An ordering key for "how small is this span": (lines, columns).

        Used to pick the *innermost* of several spans containing a cursor —
        the one covering the fewest lines, breaking ties on column width.
        """
        return (
            self.end_line - self.start_line,
            (self.end_col - self.start_col) if self.end_line == self.start_line else self.end_col,
        )

    def end_point(self) -> "Span":
        """A minimal span at this span's closing position (its last column).

        Used to give synthetic control-flow instructions (the function's
        return block, gotos out of a block) a real position — the closing
        brace — without claiming the whole construct as their source range.
        """
        if self.is_dummy():
            return self
        return Span(self.end_line, max(1, self.end_col - 1), self.end_line, self.end_col)

    def to_tuple(self) -> Tuple[int, int, int, int]:
        """The JSON-friendly ``[start_line, start_col, end_line, end_col]``."""
        return (self.start_line, self.start_col, self.end_line, self.end_col)

    @staticmethod
    def from_tuple(data) -> "Span":
        return Span(int(data[0]), int(data[1]), int(data[2]), int(data[3]))

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.is_dummy():
            return "<unknown>"
        return f"{self.start_line}:{self.start_col}"


DUMMY_SPAN = Span(0, 0, 0, 0)


class Severity(Enum):
    """How serious a diagnostic is."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True)
class Diagnostic:
    """A single compiler message with an optional source location."""

    severity: Severity
    message: str
    span: Span = DUMMY_SPAN
    notes: tuple = ()

    def render(self, filename: Optional[str] = None) -> str:
        """Format the diagnostic the way a command-line compiler would, its
        position prefixed with ``filename`` when one is given."""
        where = f"{filename}:" if filename else ""
        loc = "" if self.span.is_dummy() else f" at {where}{self.span}"
        lines = [f"{self.severity.value}{loc}: {self.message}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.render()


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class LexError(ReproError):
    """Raised when the lexer encounters a character it cannot tokenize."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


class ParseError(ReproError):
    """Raised when the parser encounters a malformed program."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


class TypeError_(ReproError):
    """Raised when type checking fails.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`TypeError`; the public alias :data:`TypeCheckError` is preferred.
    """

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


TypeCheckError = TypeError_


class LoweringError(ReproError):
    """Raised when AST-to-MIR lowering hits an unsupported construct."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


class EvalError(ReproError):
    """Raised by the interpreter for runtime failures (panics)."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


class AnalysisError(ReproError):
    """Raised when an information flow analysis cannot proceed."""

    def __init__(self, message: str, span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


class QueryError(ReproError):
    """A service query failed in a way clients can dispatch on.

    Carries a stable machine-readable ``code`` (``unknown_function``,
    ``unknown_variable``, ``position_out_of_range``, ...) alongside the
    human-readable message, so protocol layers can return typed errors
    instead of opaque failure strings.
    """

    # Stable error codes; protocol responses surface these verbatim.
    UNKNOWN_FUNCTION = "unknown_function"
    UNKNOWN_VARIABLE = "unknown_variable"
    UNKNOWN_UNIT = "unknown_unit"
    UNKNOWN_WORKSPACE = "unknown_workspace"
    NO_WORKSPACE = "no_workspace"
    POSITION_OUT_OF_RANGE = "position_out_of_range"
    NO_PLACE_AT_POSITION = "no_place_at_position"
    INVALID_PARAMS = "invalid_params"

    def __init__(self, message: str, code: str = "query_error", span: Span = DUMMY_SPAN):
        super().__init__(message)
        self.code = code
        self.span = span
        self.diagnostic = Diagnostic(Severity.ERROR, message, span)


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics across a compilation session.

    Stages append to a shared sink so a caller can decide whether to abort
    after each stage (``raise_if_errors``) or keep going and report everything
    at the end.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def error(self, message: str, span: Span = DUMMY_SPAN, notes: Iterable[str] = ()) -> Diagnostic:
        diag = Diagnostic(Severity.ERROR, message, span, tuple(notes))
        self.diagnostics.append(diag)
        return diag

    def warning(self, message: str, span: Span = DUMMY_SPAN, notes: Iterable[str] = ()) -> Diagnostic:
        diag = Diagnostic(Severity.WARNING, message, span, tuple(notes))
        self.diagnostics.append(diag)
        return diag

    def note(self, message: str, span: Span = DUMMY_SPAN) -> Diagnostic:
        diag = Diagnostic(Severity.NOTE, message, span)
        self.diagnostics.append(diag)
        return diag

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return bool(self.errors)

    def raise_if_errors(self, exc_class=ReproError) -> None:
        """Raise ``exc_class`` with a combined message if any error was recorded.

        The first error's span is attached to the raised exception so
        callers (the CLI, fuzz repro rendering) can point at the offending
        source position even for multi-diagnostic failures, and the errors
        themselves as ``diagnostics``, so a caller can render them anew.
        """
        if self.has_errors():
            errors = self.errors
            message = "\n".join(d.render() for d in errors)
            error = exc_class(message)
            if getattr(error, "span", DUMMY_SPAN) == DUMMY_SPAN:
                error.span = errors[0].span
            error.diagnostics = tuple(errors)
            raise error

    def extend(self, other: "DiagnosticSink") -> None:
        self.diagnostics.extend(other.diagnostics)

    def clear(self) -> None:
        self.diagnostics.clear()

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


def source_excerpt(source: str, span: Span, context: int = 1) -> str:
    """A numbered source excerpt with the span underlined, compiler-style.

    Shows ``context`` lines either side of the span and a caret line under
    the offending columns (``^`` across the span on its first line; spans
    covering several lines underline to the end of the first line).  Returns
    an empty string for dummy spans or positions outside the source, so
    callers can append it unconditionally.
    """
    if span.is_dummy():
        return ""
    lines = source.splitlines()
    if span.start_line < 1 or span.start_line > len(lines):
        return ""
    first = max(1, span.start_line - context)
    last = min(len(lines), max(span.end_line, span.start_line) + context)
    width = len(str(last))
    out: List[str] = []
    for number in range(first, last + 1):
        text = lines[number - 1]
        out.append(f"  {number:>{width}} | {text}")
        if number == span.start_line:
            start_col = max(1, span.start_col)
            if span.end_line == span.start_line and span.end_col > span.start_col:
                caret_width = span.end_col - span.start_col
            else:
                caret_width = max(1, len(text) - start_col + 1)
            out.append(
                f"  {'':>{width}} | " + " " * (start_col - 1) + "^" * max(1, caret_width)
            )
    return "\n".join(out)


def render_error_with_source(
    error: Exception, source: str, filename: str = "<input>"
) -> str:
    """``file:line:column`` plus a source excerpt for any span-carrying error.

    Works on every :class:`ReproError` subclass that records a ``span``
    (parse, typecheck, lowering, eval, query errors); errors without a usable
    span fall back to the plain message.  Each of the error's diagnostics is
    rendered from its own message, because the error's message may already
    name the position (``error at L:C: ...`` from a type check, ``error in
    unit 'u' at L:C: ...`` from a session).  This is how shrunk fuzz repros
    stay debuggable from the CLI: ``repro fuzz repro`` and the top-level
    error path both print through here.
    """
    span = getattr(error, "span", None)
    if not isinstance(span, Span) or span.is_dummy():
        return f"error: {error}"
    diagnostics = getattr(error, "diagnostics", None) or (
        getattr(error, "diagnostic", None) or Diagnostic(Severity.ERROR, str(error), span),
    )
    header = "\n".join(diagnostic.render(filename) for diagnostic in diagnostics)
    excerpt = source_excerpt(source, span)
    return f"{header}\n{excerpt}" if excerpt else header


def first_error(diags: Iterable[Diagnostic]) -> Optional[Diagnostic]:
    """Return the first error severity diagnostic, or ``None``."""
    for diag in diags:
        if diag.severity is Severity.ERROR:
            return diag
    return None
