"""Tests for the focus engine: resolution, tables, rendering, CLI.

Includes the focus subsystem's property tests:

* a backward slice always contains the seed's defining span,
* the focus-table entry for a variable equals the union of its per-query
  slices (both directions),
* warm (cache-served) focus results are byte-equal to cold ones.
"""

from __future__ import annotations

import io
import json

import pytest

from helpers import (
    GET_COUNT_SOURCE,
    HELPER_CALLER_SOURCE,
    analyze,
    lowered_from,
    place_expr_cursors,
)

from repro.apps.slicer import ProgramSlicer, forward_slice_locations
from repro.cli import main
from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.errors import QueryError, Span
from repro.focus.render import render_focus_markers, render_focus_response
from repro.focus.resolve import resolve_cursor
from repro.focus.spans import (
    lines_of_spans,
    location_span,
    normalize_spans,
    span_set_to_json,
    spans_of_locations,
)
from repro.focus.table import FocusTable
from repro.mir.ir import Body, Location
from repro.mir.validate import span_problems
from repro.service.cache import KIND_FOCUS
from repro.service.protocol import AnalysisService
from repro.service.session import AnalysisSession


COMPUTE_SOURCE = """\
fn compute(a: u32, b: u32) -> u32 {
    let x = a + 1;
    let y = b * 2;
    let z = x + y;
    z
}
"""

STRUCT_SOURCE = """\
struct Point { x: u32, y: u32 }

fn shift(p: &mut Point, dx: u32) -> u32 {
    p.x = p.x + dx;
    p.y
}
"""


def find_pos(source: str, needle: str, occurrence: int = 0):
    """(line, col) of the ``occurrence``-th ``needle`` in ``source``, 1-based."""
    count = 0
    for line_no, text in enumerate(source.splitlines(), start=1):
        col = -1
        while True:
            col = text.find(needle, col + 1)
            if col < 0:
                break
            if count == occurrence:
                return line_no, col + 1
            count += 1
    raise AssertionError(f"needle {needle!r}#{occurrence} not found")


# ---------------------------------------------------------------------------
# Span utilities
# ---------------------------------------------------------------------------


class TestSpanUtilities:
    def test_contains_is_half_open(self):
        span = Span(2, 5, 2, 8)
        assert span.contains(2, 5)
        assert span.contains(2, 7)
        assert not span.contains(2, 8)
        assert not span.contains(1, 6)

    def test_dummy_span_contains_nothing(self):
        assert not Span().contains(1, 1)

    def test_contains_span_and_tightness(self):
        outer = Span(1, 1, 3, 10)
        inner = Span(2, 2, 2, 5)
        assert outer.contains_span(inner)
        assert not inner.contains_span(outer)
        assert inner.tightness() < outer.tightness()

    def test_normalize_merges_overlaps_and_drops_dummies(self):
        spans = [Span(1, 1, 1, 5), Span(1, 4, 1, 9), Span(), Span(3, 1, 3, 2)]
        assert normalize_spans(spans) == (Span(1, 1, 1, 9), Span(3, 1, 3, 2))

    def test_normalization_is_canonical(self):
        a = [Span(1, 1, 1, 5), Span(2, 1, 2, 3)]
        assert normalize_spans(a) == normalize_spans(list(reversed(a)))

    def test_span_tuple_round_trip(self):
        span = Span(1, 2, 3, 4)
        assert Span.from_tuple(span.to_tuple()) == span

    @pytest.mark.parametrize("fn_name", ["caller", "helper"])
    def test_spans_of_locations_equals_the_per_instruction_referee(self, fn_name):
        """The span-table path answers what the per-instruction referee
        answers, for Locations and stored pairs alike; a synthetic argument
        tag (negative block) has no span."""
        _, lowered = lowered_from(HELPER_CALLER_SOURCE)
        body = lowered.body(fn_name)
        locations = list(body.locations())
        expected = normalize_spans(location_span(body, loc) for loc in locations)
        assert spans_of_locations(body, locations) == expected
        assert spans_of_locations(body, [list(loc) for loc in locations]) == expected
        assert spans_of_locations(body, locations + [Location(-2, 0)]) == expected
        for loc in locations:
            assert spans_of_locations(body, [loc]) == normalize_spans([location_span(body, loc)])

    def test_span_set_to_json_lines_are_the_spans_lines(self):
        spans = normalize_spans(
            [Span(3, 1, 4, 2), Span(4, 5, 4, 9), Span(4, 7, 6, 1), Span(9, 2, 9, 3)]
        )
        assert spans == (Span(3, 1, 4, 2), Span(4, 5, 6, 1), Span(9, 2, 9, 3))
        for offset in (0, 2):
            out, lines = span_set_to_json(spans, offset)
            assert out == [[s[0] - offset, s[1], s[2] - offset, s[3]] for s in spans]
            assert lines == sorted(line - offset for line in lines_of_spans(spans))
        assert span_set_to_json((), 0) == ([], [])


# ---------------------------------------------------------------------------
# Span fidelity of the lowering (satellite: DUMMY_SPAN audit)
# ---------------------------------------------------------------------------


class TestSpanFidelity:
    @pytest.mark.parametrize(
        "source", [COMPUTE_SOURCE, STRUCT_SOURCE, GET_COUNT_SOURCE, HELPER_CALLER_SOURCE]
    )
    def test_lowered_bodies_are_span_clean(self, source):
        _, lowered = lowered_from(source)
        for body in lowered.bodies.values():
            assert span_problems(body) == []

    def test_terminators_carry_spans(self):
        _, lowered = lowered_from(GET_COUNT_SOURCE)
        body = lowered.body("get_count")
        for block in body.blocks:
            assert not block.terminator.span.is_dummy()

    def test_every_location_maps_to_a_span(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        body = lowered.body("compute")
        for location in body.locations():
            assert not location_span(body, location).is_dummy()

    def test_composite_expression_spans_cover_operands(self):
        from repro.lang.parser import parse_expr

        expr = parse_expr("alpha + beta * gamma")
        assert expr.span.start_col == 1
        assert expr.span.end_col == 1 + len("alpha + beta * gamma")


# ---------------------------------------------------------------------------
# Cursor resolution
# ---------------------------------------------------------------------------


class TestResolve:
    def test_cursor_on_variable_use(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        target = resolve_cursor(lowered, line, col)
        assert target.fn_name == "compute"
        assert target.label == "x"

    def test_cursor_on_let_binding_name(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "let y")
        target = resolve_cursor(lowered, line, col + 4)
        assert target.label == "y"
        assert not target.defining_span.is_dummy()

    def test_cursor_on_parameter(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "a: u32")
        target = resolve_cursor(lowered, line, col)
        assert target.label == "a"

    def test_cursor_on_field_access_resolves_projection(self):
        _, lowered = lowered_from(STRUCT_SOURCE)
        # Cursor on the `x` of the *read* `p.x + dx`.
        line, col = find_pos(STRUCT_SOURCE, "p.x", 1)
        target = resolve_cursor(lowered, line, col + 2)
        assert target.fn_name == "shift"
        # Field access through &mut inserts the auto-deref the lowering uses.
        assert target.place.projection != ()
        assert target.label == "(*p).0"

    def test_position_outside_any_function_is_typed_error(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        with pytest.raises(QueryError) as excinfo:
            resolve_cursor(lowered, 99, 1)
        assert excinfo.value.code == QueryError.POSITION_OUT_OF_RANGE

    def test_position_on_no_place_is_typed_error(self):
        _, lowered = lowered_from(COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "fn compute")
        with pytest.raises(QueryError) as excinfo:
            resolve_cursor(lowered, line, col)
        assert excinfo.value.code == QueryError.NO_PLACE_AT_POSITION


# ---------------------------------------------------------------------------
# Focus tables (property tests)
# ---------------------------------------------------------------------------


def _named_variables(body):
    return [local.name for local in body.user_locals() if local.name is not None]


def _keys_anywhere(value) -> set:
    """Every dict key at any depth of a JSON value."""
    if isinstance(value, dict):
        keys = set(value)
        for item in value.values():
            keys |= _keys_anywhere(item)
        return keys
    if isinstance(value, list):
        return set().union(*(_keys_anywhere(item) for item in value))
    return set()


SPAN_KEYS = {"defining_span", "backward_spans", "forward_spans"}


def _stored_focus_table(session: AnalysisSession, fn_name: str) -> dict:
    """The focus-table value ``session``'s store holds for ``fn_name``."""
    return session.store.get(session._fingerprints.key(KIND_FOCUS, fn_name, MODULAR))


class TestFocusTableProperties:
    @pytest.mark.parametrize(
        "source,fn_name",
        [
            (COMPUTE_SOURCE, "compute"),
            (STRUCT_SOURCE, "shift"),
            (GET_COUNT_SOURCE, "get_count"),
            (HELPER_CALLER_SOURCE, "caller"),
        ],
    )
    def test_backward_slice_contains_defining_span(self, source, fn_name):
        """Property (a): a let-bound variable's backward slice covers the
        span where the variable was defined."""
        result = analyze(source, fn_name)
        table = FocusTable.build(result)
        for variable in _named_variables(result.body):
            local = result.body.local_by_name(variable)
            if local.is_arg:
                continue  # parameters have no defining statement
            entry = table.entry_for_variable(variable)
            assert any(
                span.contains_span(entry.defining_span)
                for span in entry.backward_spans
            ), f"backward slice of {variable!r} misses its definition"

    @pytest.mark.parametrize("config", [MODULAR, WHOLE_PROGRAM])
    def test_table_equals_per_query_slices(self, config):
        """Property (b): the all-places tabulation answers exactly what the
        per-query slicer computes, variable by variable."""
        for source, fn_name in (
            (COMPUTE_SOURCE, "compute"),
            (STRUCT_SOURCE, "shift"),
            (HELPER_CALLER_SOURCE, "caller"),
        ):
            result = analyze(source, fn_name, config)
            table = FocusTable.build(result)
            for variable in _named_variables(result.body):
                entry = table.entry_for_variable(variable)
                assert frozenset(entry.backward) == result.backward_slice_of_variable(
                    variable
                )
                assert frozenset(entry.forward) == forward_slice_locations(
                    result, result.body.local_by_name(variable)
                )

    def test_warm_focus_results_byte_equal_to_cold(self):
        """Property (c): a table served from cache yields the same bytes, at
        every place-expression cursor.  A warm query decodes only its own
        entry, so clobbering every other stored entry leaves it unchanged."""

        def canonical(response: dict) -> str:
            response = dict(response)
            response.pop("stats", None)  # counters differ between passes
            response.pop("cache", None)
            return json.dumps(response, sort_keys=True)

        for source in (COMPUTE_SOURCE, STRUCT_SOURCE):
            for line, col in place_expr_cursors(source):
                session = AnalysisSession()
                session.open_unit("main", source)
                cold = session.focus(line=line, col=col)
                warm = session.focus(line=line, col=col)
                assert cold["cache"] == "miss"
                assert warm["cache"] == "hit"
                assert canonical(cold) == canonical(warm), (line, col)

                stored = _stored_focus_table(session, cold["function"])
                assert not _keys_anywhere(stored) & SPAN_KEYS
                others = [key for key in stored["entries"] if key != cold["target"]]
                assert others
                for key in others:
                    stored["entries"][key] = {}
                clobbered = session.focus(line=line, col=col)
                assert clobbered["cache"] == "hit"
                assert canonical(clobbered) == canonical(cold), (line, col)

    def test_table_json_round_trip(self):
        result = analyze(STRUCT_SOURCE, "shift")
        table = FocusTable.build(result)
        stored = json.loads(json.dumps(table.to_json_dict()))
        assert sorted(stored) == ["entries", "places"]
        assert not _keys_anywhere(stored) & SPAN_KEYS
        clone = FocusTable.from_json_dict(stored)
        assert clone.to_json_dict() == table.to_json_dict()
        assert clone.labels() == table.labels()
        # Decoding an entry against the body reproduces the built entry,
        # and reading never mutates the stored value.
        before = json.dumps(stored, sort_keys=True)
        bound = clone.respan(result.body)
        for label in table.labels():
            assert bound.entry_for_variable(label) == table.entry_for_variable(label)
        assert json.dumps(stored, sort_keys=True) == before

    def test_spans_of_locations_matches_entry_spans(self):
        result = analyze(COMPUTE_SOURCE, "compute")
        table = FocusTable.build(result)
        entry = table.entry_for_variable("z")
        assert spans_of_locations(result.body, entry.backward) == entry.backward_spans

    def test_unknown_variable_is_typed_error(self):
        result = analyze(COMPUTE_SOURCE, "compute")
        table = FocusTable.build(result)
        with pytest.raises(QueryError) as excinfo:
            table.entry_for_variable("nope")
        assert excinfo.value.code == QueryError.UNKNOWN_VARIABLE


# ---------------------------------------------------------------------------
# Session-level focus queries
# ---------------------------------------------------------------------------


SHADOW_SAME_BLOCK = "fn f(a: u32) -> u32 {\n    let s = a + 1;\n    let s = s * 2;\n    s\n}"
SHADOW_NESTED_BLOCK = (
    "fn g(a: u32) -> u32 {\n    let x = a + 1;\n    let y = {\n        let x = x * 2;\n"
    "        x + 1\n    };\n    x + y\n}"
)
OTHER_UNIT = "fn other(v: u32) -> u32 {\n    v\n}"

# (source, cursor line, cursor col, defining span, backward lines)
SHADOWED_CURSORS = [
    (SHADOW_SAME_BLOCK, 4, 5, [3, 9, 3, 10], [2, 3]),
    (SHADOW_SAME_BLOCK, 3, 9, [3, 9, 3, 10], [2, 3]),
    (SHADOW_SAME_BLOCK, 3, 13, [2, 9, 2, 10], [2]),
    (SHADOW_SAME_BLOCK, 2, 9, [2, 9, 2, 10], [2]),
    (SHADOW_NESTED_BLOCK, 4, 13, [4, 13, 4, 14], [2, 4]),
    (SHADOW_NESTED_BLOCK, 5, 9, [4, 13, 4, 14], [2, 4]),
    (SHADOW_NESTED_BLOCK, 4, 17, [2, 9, 2, 10], [2]),
    (SHADOW_NESTED_BLOCK, 7, 5, [2, 9, 2, 10], [2]),
    (SHADOW_NESTED_BLOCK, 7, 9, [3, 9, 3, 10], [2, 4, 5]),
]


def _answer(response: dict) -> dict:
    return {key: value for key, value in response.items() if key not in ("cache", "stats")}


class TestSessionFocus:
    @pytest.mark.parametrize(
        "source, line, col, defining, lines",
        SHADOWED_CURSORS,
        ids=[f"{case[0][3]}-{case[1]}:{case[2]}" for case in SHADOWED_CURSORS],
    )
    def test_cursor_on_a_shadowed_name_answers_the_binding_in_scope(
        self, source, line, col, defining, lines
    ):
        """A cursor on a shadowing ``let`` name, or on a use of a shadowed
        name, answers the binding in scope there; after an edit to another
        function, the answer is unchanged and equals a fresh session's."""
        cursor = {"unit": "b", "line": line, "col": col, "direction": "backward"}
        session = AnalysisSession()
        session.open_units([("a", OTHER_UNIT), ("b", source)])
        answer = _answer(session.focus(**cursor))
        assert answer["defining_span"] == defining
        assert answer["backward"]["lines"] == lines

        edited = OTHER_UNIT.replace("    v\n", "    v + 1\n")
        session.update_unit("a", edited)
        fresh = AnalysisSession()
        fresh.open_units([("a", edited), ("b", source)])
        assert _answer(session.focus(**cursor)) == _answer(fresh.focus(**cursor)) == answer

    def test_cursor_and_name_queries_agree(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        by_cursor = session.focus(line=line, col=col)
        by_name = session.focus(function="compute", variable="x")
        assert by_cursor["target"] == by_name["target"] == "x"
        assert by_cursor["backward"] == by_name["backward"]
        assert by_cursor["forward"] == by_name["forward"]

    def test_direction_filtering(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        bwd = session.focus(function="compute", variable="z", direction="backward")
        assert "backward" in bwd and "forward" not in bwd

    def test_update_unit_invalidates_focus_tables(self):
        """The acceptance-criterion scenario: warm focus, edit, re-focus."""
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        cold = session.focus(line=line, col=col)
        assert session.focus(line=line, col=col)["cache"] == "hit"

        # An edit that changes x's dependencies: x now also reads b.
        edited = COMPUTE_SOURCE.replace("let x = a + 1;", "let x = a + b + 1;")
        session.update_unit("main", edited)
        after = session.focus(line=line, col=col)
        assert after["cache"] == "miss"  # table was invalidated, not reused
        assert after["backward"] != cold["backward"]
        # And the new table is served warm again afterwards.
        assert session.focus(line=line, col=col)["cache"] == "hit"

    def test_focus_unknown_function_typed_error(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        with pytest.raises(QueryError) as excinfo:
            session.focus(function="nope", variable="x")
        assert excinfo.value.code == QueryError.UNKNOWN_FUNCTION

    def test_focus_without_workspace_typed_error(self):
        with pytest.raises(QueryError) as excinfo:
            AnalysisSession().focus(line=1, col=1)
        assert excinfo.value.code == QueryError.NO_WORKSPACE

    def test_focus_needs_cursor_or_name(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        with pytest.raises(QueryError) as excinfo:
            session.focus()
        assert excinfo.value.code == QueryError.INVALID_PARAMS

    def test_shadowed_binding_name_lookup_matches_local_by_name(self):
        """Name-based queries answer for the first binding (what
        ``local_by_name`` resolves); later shadows stay cursor-addressable."""
        source = "fn f(a: u32) -> u32 {\n    let x = a + 1;\n    let x = x * 2;\n    x\n}\n"
        result = analyze(source, "f")
        table = FocusTable.build(result)
        first_local = result.body.local_by_name("x")
        entry = table.entry_for_variable("x")
        assert entry.place.local == first_local.index
        assert frozenset(entry.backward) == result.backward_slice_of_variable("x")
        # Both bindings have entries: cursor on the shadowing `x` resolves.
        session = AnalysisSession()
        session.open_unit("main", source)
        shadow = session.focus(line=3, col=9)  # the second `let x`
        assert shadow["target"] == "x"

    def test_multi_unit_cursor_is_unit_relative(self):
        """With several open documents, a cursor + unit addresses that
        document's coordinates, and response spans come back unit-relative."""
        other = "fn alpha(q: u32) -> u32 {\n    let w = q + 7;\n    w\n}\n"
        session = AnalysisSession()
        session.open_unit("lib.mr", other)
        session.open_unit("main.mr", COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "x + y")

        scoped = session.focus(line=line, col=col, unit="main.mr")
        assert scoped["function"] == "compute"
        assert scoped["seed_span"][0] == line
        assert all(span[0] >= 1 for span in scoped["backward"]["spans"])

        # The same bare position without a unit hits lib.mr's coordinates.
        unscoped = session.focus(line=2, col=13)
        assert unscoped["function"] == "alpha"

        # A cursor past the end of its unit (lib.mr has 5 lines) or before
        # its first line never answers from a neighbouring unit: line 7 of
        # lib.mr would be main.mr's `let x` in the joined source.
        for unit, line_out in (("lib.mr", 7), ("main.mr", 0), ("main.mr", -4)):
            with pytest.raises(QueryError) as excinfo:
                session.focus(line=line_out, col=9, unit=unit)
            assert excinfo.value.code == QueryError.POSITION_OUT_OF_RANGE
        assert session.focus(line=7, col=9)["function"] == "compute"

        # Reference: a single-unit session must agree with the scoped query.
        solo = AnalysisSession()
        solo.open_unit("main", COMPUTE_SOURCE)
        reference = solo.focus(line=line, col=col)
        assert scoped["backward"] == reference["backward"]
        assert scoped["forward"] == reference["forward"]

    def test_position_shift_edit_serves_current_spans(self):
        """An edit that shifts a function without changing its MIR must not
        serve stale source spans from the cached focus table."""
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        before = session.focus(line=line, col=col)

        shifted_source = "// a comment shifting everything down\n" + COMPUTE_SOURCE
        session.update_unit("main", shifted_source)
        after = session.focus(line=line + 1, col=col)
        # Same MIR -> the cached table's locations are reused...
        assert after["cache"] == "hit"
        # ...but every span tracks the text's new position.
        shift = lambda spans: [[s[0] + 1, s[1], s[2] + 1, s[3]] for s in spans]
        assert after["backward"]["spans"] == shift(before["backward"]["spans"])
        assert after["forward"]["spans"] == shift(before["forward"]["spans"])
        assert after["seed_span"][0] == before["seed_span"][0] + 1

        # slice spans and lines must agree with each other post-shift.
        response = session.slice("compute", "z")
        span_lines = {l for s in response["spans"] for l in range(s[0], s[2] + 1)}
        assert set(response["lines"]) <= span_lines

    def test_cursor_on_binding_inside_return_expression(self):
        source = (
            "fn f(a: u32, c: bool) -> u32 {\n"
            "    return if c { let q = a + 1; q } else { a };\n"
            "}\n"
        )
        _, lowered = lowered_from(source)
        line, col = find_pos(source, "let q")
        target = resolve_cursor(lowered, line, col + 4)
        assert target.label == "q"

    def test_focus_unknown_unit_typed_error(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        with pytest.raises(QueryError) as excinfo:
            session.focus(line=1, col=1, unit="nope.mr")
        assert excinfo.value.code == QueryError.UNKNOWN_UNIT

    TWO_UNITS = [
        ("a", "fn f(x: u32) -> u32 {\n    let y = x + 1;\n    y\n}"),
        ("b", "\nfn g(v: u32) -> u32 {\n    v + 1\n}"),
    ]

    def test_unit_relative_errors_name_the_position_sent(self):
        """A typed error for a cursor given with a unit names the position
        the client sent, not its line in the joined workspace (unit a has 4
        lines, so line 1 of b is line 5 there)."""
        session = AnalysisSession()
        session.open_units(self.TWO_UNITS)
        with pytest.raises(QueryError) as excinfo:
            session.focus(line=1, col=5, unit="b")  # a blank line
        assert excinfo.value.code == QueryError.POSITION_OUT_OF_RANGE
        assert str(excinfo.value) == "position 1:5 is not inside any function body"
        with pytest.raises(QueryError) as excinfo:
            session.focus(line=3, col=7, unit="b")  # the `+` of `v + 1`
        assert excinfo.value.code == QueryError.NO_PLACE_AT_POSITION
        assert str(excinfo.value) == "no place expression at 3:7 in function 'g'"

    def test_function_focus_with_a_unit_that_does_not_hold_it(self):
        session = AnalysisSession()
        session.open_units(self.TWO_UNITS)
        with pytest.raises(QueryError) as excinfo:
            session.focus(function="f", variable="y", unit="b")
        assert excinfo.value.code == QueryError.INVALID_PARAMS
        assert str(excinfo.value) == "function 'f' is in unit 'a', not 'b'"
        # With the unit that holds it, spans and lines are that unit's.
        out = session.focus(function="f", variable="y", unit="a")
        assert out["seed_span"] == [2, 9, 2, 10]
        assert out["function_span"] == [1, 1, 4, 2]
        assert session.focus(function="g", variable="v", unit="b")["function_span"] == [2, 1, 4, 2]

    def test_slice_reports_spans(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        response = session.slice("compute", "z")
        assert response["spans"]
        assert response["lines"]

    BLANK_LINE_SOURCE = (
        "fn f(a: u32, b: u32) -> u32 {\n"
        "    let x = a + 1;\n"
        "    let y = x * b;\n"
        "    y + x\n"
        "}"
    )

    def test_blank_line_inside_a_function_keeps_its_table_and_moves_its_highlights(self):
        """The fingerprint hashes the MIR text, so a blank line inside a
        function keeps its stored table; the spans still move with the text.
        A table that stored spans, or a span table kept by fingerprint or
        by function name, would answer the old lines here."""
        session = AnalysisSession()
        session.open_unit("main", self.BLANK_LINE_SOURCE)
        before = session.focus(line=4, col=5)
        assert before["backward"]["spans"] == [[2, 5, 2, 19], [3, 5, 3, 19]]

        lines = self.BLANK_LINE_SOURCE.split("\n")
        edited = "\n".join(lines[:2] + [""] + lines[2:])
        update = session.update_unit("main", edited)
        assert update["body_changed"] == [] and update["evicted_entries"] == 0

        after = session.focus(line=5, col=5)
        assert after["cache"] == "hit"
        assert after["backward"]["spans"] == [[2, 5, 2, 19], [4, 5, 4, 19]]
        assert after["backward"]["lines"] == [2, 4]
        fresh = AnalysisSession()
        fresh.open_unit("main", edited)
        cold = fresh.focus(line=5, col=5)
        assert cold["cache"] == "miss"
        for key in ("cache", "stats"):
            del after[key], cold[key]
        assert after == cold

    def test_one_span_table_per_body(self, monkeypatch):
        """A body's span table is built on first use and kept as long as the
        body: an edit elsewhere keeps the body and builds none, an edit
        inside the function builds one for its new body."""
        builds = []
        build = Body._span_table

        def counting(body):
            builds.append(body.fn_name)
            return build(body)

        monkeypatch.setattr(Body, "_span_table", counting)
        source = "fn g(v: u32) -> u32 {\n    v + 1\n}\n" + self.BLANK_LINE_SOURCE
        session = AnalysisSession()
        session.open_unit("main", source)
        body = session._lowered.body("f")
        session.focus(line=7, col=5)
        session.focus(line=5, col=13)
        assert builds == ["f"]

        session.update_unit("main", source.replace("v + 1", "v + 2"))
        assert session._lowered.body("f") is body
        assert session.focus(line=7, col=5)["cache"] == "hit"
        assert builds == ["f"]

        session.update_unit("main", source.replace("a + 1", "a + 2"))
        assert session._lowered.body("f") is not body
        assert session.focus(line=7, col=5)["cache"] == "miss"
        assert builds == ["f", "f"]

    def test_one_direction_query_derives_one_direction(self, monkeypatch):
        import repro.focus.table as table_module

        calls = []
        derive = table_module.spans_of_locations

        def counting(body, locations):
            calls.append(body.fn_name)
            return derive(body, locations)

        monkeypatch.setattr(table_module, "spans_of_locations", counting)
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        out = session.focus(function="compute", variable="z", direction="backward")
        assert "backward" in out and "forward" not in out
        assert calls == ["compute"]
        session.focus(function="compute", variable="z")
        assert calls == ["compute"] * 3


# ---------------------------------------------------------------------------
# Typed protocol errors (satellite: structured errors)
# ---------------------------------------------------------------------------


class TestProtocolErrorCodes:
    def make_service(self) -> AnalysisService:
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        return AnalysisService(session)

    def test_unknown_function_code(self):
        response = self.make_service().handle(
            {"id": 1, "method": "slice", "params": {"function": "nope", "variable": "x"}}
        )
        assert not response["ok"]
        assert response["error_code"] == "unknown_function"

    def test_unknown_variable_code(self):
        response = self.make_service().handle(
            {"id": 1, "method": "slice",
             "params": {"function": "compute", "variable": "nope"}}
        )
        assert response["error_code"] == "unknown_variable"

    def test_position_out_of_range_code(self):
        response = self.make_service().handle(
            {"id": 1, "method": "focus", "params": {"line": 99, "col": 1}}
        )
        assert response["error_code"] == "position_out_of_range"

    def test_protocol_error_code(self):
        response = self.make_service().handle({"id": 1, "method": "bogus"})
        assert response["error_code"] == "protocol_error"

    def test_no_workspace_code(self):
        response = AnalysisService().handle({"id": 1, "method": "analyze", "params": {}})
        assert response["error_code"] == "no_workspace"

    def test_focus_request_round_trip(self):
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        response = self.make_service().handle(
            {"id": 7, "method": "focus", "params": {"line": line, "col": col}}
        )
        assert response["ok"]
        assert response["result"]["target"] == "x"
        assert response["result"]["forward"]["spans"]


# ---------------------------------------------------------------------------
# Rendering and CLI
# ---------------------------------------------------------------------------


class TestRenderAndCli:
    def test_marker_render_places_seed_and_directions(self):
        seed = Span(2, 5, 2, 6)
        rendered = render_focus_markers(
            "ab\nxyz w\n", seed,
            backward=(Span(1, 1, 1, 3),), forward=(Span(2, 1, 2, 4),),
        )
        lines = rendered.splitlines()
        assert lines[0].endswith("ab")
        assert "<<" in lines[1]
        assert ">>>" in lines[2 + 1]
        assert "^" in lines[3]

    def test_render_focus_response_headers(self):
        session = AnalysisSession()
        session.open_unit("main", COMPUTE_SOURCE)
        response = session.focus(function="compute", variable="z")
        text = render_focus_response(COMPUTE_SOURCE, response)
        assert text.startswith("// focus on `z` in compute")
        assert "^" in text

    def test_cli_focus_by_cursor(self, tmp_path, capsys):
        path = tmp_path / "m.mr"
        path.write_text(COMPUTE_SOURCE, encoding="utf-8")
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        out = io.StringIO()
        code = main(["focus", str(path), "--line", str(line), "--col", str(col)], out=out)
        assert code == 0
        assert "focus on `x`" in out.getvalue()

    def test_cli_focus_json_and_direction_alias(self, tmp_path):
        path = tmp_path / "m.mr"
        path.write_text(COMPUTE_SOURCE, encoding="utf-8")
        out = io.StringIO()
        code = main([
            "focus", str(path), "--function", "compute", "--variable", "y",
            "--direction", "fwd", "--json",
        ], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["direction"] == "forward"
        assert "backward" not in payload

    def test_cli_focus_error_exits_nonzero(self, tmp_path):
        path = tmp_path / "m.mr"
        path.write_text(COMPUTE_SOURCE, encoding="utf-8")
        out = io.StringIO()
        code = main(["focus", str(path), "--line", "99", "--col", "1"], out=out)
        assert code == 2
        assert "error" in out.getvalue()

    def test_cli_query_focus_warm_repeat(self, tmp_path):
        path = tmp_path / "m.mr"
        path.write_text(COMPUTE_SOURCE, encoding="utf-8")
        line, col = find_pos(COMPUTE_SOURCE, "x + y")
        out = io.StringIO()
        code = main([
            "query", str(path), "--method", "focus",
            "--line", str(line), "--col", str(col), "--repeat", "2",
        ], out=out)
        assert code == 0
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert responses[0]["result"]["cache"] == "miss"
        assert responses[1]["result"]["cache"] == "hit"
