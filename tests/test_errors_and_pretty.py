"""Tests for diagnostics, spans, and the pretty printers."""

import pickle

import pytest

from repro.errors import (
    DUMMY_SPAN,
    Diagnostic,
    DiagnosticSink,
    LexError,
    ParseError,
    ReproError,
    Severity,
    Span,
    TypeCheckError,
    first_error,
)
from repro.mir.pretty import pretty_body, pretty_location
from repro.mir.ir import Location

from helpers import lowered_from, GET_COUNT_SOURCE


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_span_merge_covers_both_ranges():
    a = Span(1, 2, 1, 9)
    b = Span(3, 1, 4, 5)
    merged = a.merge(b)
    assert merged == Span(1, 2, 4, 5)


def test_span_merge_with_dummy_keeps_real_side():
    real = Span(2, 1, 2, 5)
    assert DUMMY_SPAN.merge(real) == real
    assert real.merge(DUMMY_SPAN) == real


def test_span_contains_line_and_point():
    span = Span(3, 1, 5, 2)
    assert span.contains_line(4)
    assert not span.contains_line(6)
    point = Span.point(7, 1)
    assert point.contains_line(7)
    assert str(point) == "7:1"
    assert str(DUMMY_SPAN) == "<unknown>"


def test_span_is_an_immutable_value():
    span = Span(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        span.start_line = 5
    assert pickle.loads(pickle.dumps(span)) == span
    # Hashed as the tuple of its fields, so set order over spans is stable.
    assert hash(span) == hash((1, 2, 3, 4))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_diagnostic_render_includes_location_and_notes():
    diag = Diagnostic(Severity.ERROR, "something broke", Span(2, 3, 2, 7), ("try this",))
    rendered = diag.render()
    assert "error at 2:3" in rendered
    assert "note: try this" in rendered


def test_sink_collects_and_filters_by_severity():
    sink = DiagnosticSink()
    sink.error("bad")
    sink.warning("meh")
    sink.note("fyi")
    assert len(sink.errors) == 1
    assert len(sink.warnings) == 1
    assert sink.has_errors()
    assert first_error(sink.diagnostics).message == "bad"
    assert "bad" in sink.render()


def test_sink_raise_if_errors_combines_messages():
    sink = DiagnosticSink()
    sink.error("first problem")
    sink.error("second problem")
    with pytest.raises(ReproError) as excinfo:
        sink.raise_if_errors()
    assert "first problem" in str(excinfo.value)
    assert "second problem" in str(excinfo.value)


def test_sink_without_errors_does_not_raise():
    sink = DiagnosticSink()
    sink.warning("only a warning")
    sink.raise_if_errors()
    assert not sink.has_errors()


def test_sink_extend_and_clear():
    a = DiagnosticSink()
    a.error("x")
    b = DiagnosticSink()
    b.extend(a)
    assert b.has_errors()
    b.clear()
    assert not b.has_errors()


def test_error_classes_carry_spans_and_diagnostics():
    for error_class in (LexError, ParseError, TypeCheckError):
        error = error_class("boom", Span(1, 1, 1, 2))
        assert error.span.start_line == 1
        assert error.diagnostic.severity is Severity.ERROR
        assert isinstance(error, ReproError)


# ---------------------------------------------------------------------------
# MIR pretty printing
# ---------------------------------------------------------------------------


def test_pretty_body_names_arguments_and_temporaries():
    _checked, lowered = lowered_from(GET_COUNT_SOURCE)
    body = lowered.body("get_count")
    text = pretty_body(body)
    assert "// argument `h`" in text
    assert "// temporary" in text
    assert "// return place" in text
    assert "// crate: main" in text


def test_pretty_body_uses_user_names_in_instructions():
    _checked, lowered = lowered_from("fn f(total: u32) -> u32 { total + 1 }")
    body = lowered.body("f")
    text = pretty_body(body)
    assert "total + 1" in text


def test_pretty_location_renders_single_instruction():
    _checked, lowered = lowered_from("fn f(a: u32) -> u32 { a }")
    body = lowered.body("f")
    rendered = pretty_location(body, Location(0, 0))
    assert rendered.startswith("bb0[0]:")


def test_pretty_body_terminator_annotations():
    _checked, lowered = lowered_from(GET_COUNT_SOURCE)
    body = lowered.body("get_count")
    switch_block = next(
        index
        for index, block in enumerate(body.blocks)
        if "switch" in block.terminator.pretty(body)
    )
    location = body.terminator_location(switch_block)
    text = pretty_body(body, {location: "controls both branches"})
    assert "controls both branches" in text
