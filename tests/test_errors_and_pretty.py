"""Tests for diagnostics, spans, and the pretty printers."""

import pickle

import pytest

from repro.errors import (
    DUMMY_SPAN,
    AnalysisError,
    Diagnostic,
    EvalError,
    LexError,
    LoweringError,
    ParseError,
    QueryError,
    ReproError,
    Span,
    TypeCheckError,
    TypeError_,
)
from repro.service.protocol import InvalidParams, MalformedRequest, ProtocolError
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


def test_diagnostic_renders_with_and_without_a_position():
    diagnostic = Diagnostic("something broke", Span(2, 3, 2, 7))
    assert diagnostic.render() == "error at 2:3: something broke"
    assert diagnostic.render("f.mrs") == "error at f.mrs:2:3: something broke"
    assert Diagnostic("no position").render("f.mrs") == "error: no position"


def test_of_joins_diagnostics_at_the_first_span():
    first = Diagnostic("first problem", Span(2, 5, 2, 9))
    second = Diagnostic("second problem", Span(4, 1, 4, 3))
    error = TypeCheckError.of([first, second])
    assert isinstance(error, TypeCheckError)
    assert str(error) == "error at 2:5: first problem\nerror at 4:1: second problem"
    assert error.span == first.span
    assert error.diagnostics == (first, second)
    assert error.code == "repro_error"


def test_every_error_has_one_shape_and_a_default_code():
    codes = {
        ReproError: "repro_error",
        LexError: "repro_error",
        ParseError: "repro_error",
        TypeError_: "repro_error",
        LoweringError: "repro_error",
        EvalError: "repro_error",
        AnalysisError: "repro_error",
        QueryError: "query_error",
        ProtocolError: "protocol_error",
        MalformedRequest: "parse_error",
        InvalidParams: "invalid_params",
    }
    span = Span(1, 1, 1, 2)
    for error_class, code in codes.items():
        error = error_class("boom", span)
        assert (str(error), error.span, error.code) == ("boom", span, code), error_class
        assert error.diagnostics == (Diagnostic("boom", span),), error_class
        bare = error_class("boom")
        assert bare.span == DUMMY_SPAN and bare.diagnostics == (Diagnostic("boom"),)
        assert error_class("boom", code="unknown_unit").code == "unknown_unit"
    # ReproError's is the one constructor in the hierarchy.
    assert [c.__name__ for c in codes if c is not ReproError and "__init__" in vars(c)] == []


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
