"""The cursor index against the linear scans it replaced.

``resolve_cursor`` finds the function under a cursor by bisection and tests
only the binding names and place expressions filed under the cursor's line
(:class:`~repro.focus.resolve.CursorIndex`).  The referee below is the
resolver as it was before the index: it scans every function of the program
and walks the whole body of the one it hits.  At every position of every
input, both must give the same :class:`FocusTarget` or the same
:class:`QueryError` code.
"""

from __future__ import annotations

import pytest

from helpers import lowered_from

from repro.errors import QueryError, ReproError
from repro.eval.corpus import generate_fuzz_corpus
from repro.focus.resolve import CursorIndex, FocusTarget, place_expr_to_mir, resolve_cursor
from repro.lang import ast
from repro.mir.ir import Place
from repro.obs import start_trace
from repro.service.session import AnalysisSession


def _walk_stmts(block):
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, ast.WhileStmt):
            yield from _walk_stmts(stmt.body)
        elif isinstance(stmt, ast.ExprStmt):
            yield from _walk_stmts_of_expr(stmt.expr)
        elif isinstance(stmt, ast.LetStmt) and stmt.init is not None:
            yield from _walk_stmts_of_expr(stmt.init)
        elif isinstance(stmt, ast.AssignStmt):
            yield from _walk_stmts_of_expr(stmt.value)
        elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            yield from _walk_stmts_of_expr(stmt.value)
    if block.tail is not None:
        yield from _walk_stmts_of_expr(block.tail)


def _walk_stmts_of_expr(expr):
    if isinstance(expr, ast.If):
        yield from _walk_stmts(expr.then_block)
        if expr.else_block is not None:
            yield from _walk_stmts(expr.else_block)
    elif isinstance(expr, ast.BlockExpr):
        yield from _walk_stmts(expr.block)
    else:
        for child in expr.children():
            yield from _walk_stmts_of_expr(child)


class Referee:
    """The resolver with linear scans: every function of the program, then
    every binding and place expression of the whole function hit.  Each
    body is walked once, up front, in the order the scans visit it."""

    def __init__(self, checked, lowered):
        self.checked = checked
        self.lowered = lowered
        self.functions = []
        for fn in checked.program.all_functions():
            if fn.body is None:
                continue
            bindings = [(param.name, param.span) for param in fn.params]
            bindings += [
                (stmt.name, stmt.name_span)
                for stmt in _walk_stmts(fn.body)
                if isinstance(stmt, ast.LetStmt)
            ]
            places = [expr for expr in ast.walk_block(fn.body) if expr.is_place()]
            self.functions.append((fn, bindings, places))

    def resolve(self, line, col, line_offset=0):
        if line < 1 or col < 1:
            raise QueryError("bad position", code=QueryError.POSITION_OUT_OF_RANGE)
        at = line + line_offset
        hit = None
        for candidate in self.functions:
            span = candidate[0].span
            if span.contains(at, col) and (
                hit is None or span.tightness() < hit[0].span.tightness()
            ):
                hit = candidate
        if hit is None:
            raise QueryError("outside", code=QueryError.POSITION_OUT_OF_RANGE)
        fn, bindings, places = hit
        body = self.lowered.body(fn.name)
        if body is None:
            raise QueryError("no body", code=QueryError.UNKNOWN_FUNCTION)

        for name, span in bindings:
            if span.contains(at, col):
                local = body.local_by_name(name)
                if local is not None:
                    place = Place.from_local(local.index)
                    return FocusTarget(fn.name, place, place.pretty(body), span, local.span)
                break

        resolved = []
        for expr in places:
            if expr.span.contains(at, col):
                place = place_expr_to_mir(expr, body)
                if place is not None:
                    resolved.append((expr, place))
        if not resolved:
            raise QueryError("no place", code=QueryError.NO_PLACE_AT_POSITION)
        expr, place = min(resolved, key=lambda pair: pair[0].span.tightness())
        return FocusTarget(
            fn.name, place, place.pretty(body), expr.span, body.locals[place.local].span
        )


def outcome(resolve, *args, **kwargs):
    """A resolver's answer, or the code of the QueryError it raised."""
    try:
        return resolve(*args, **kwargs)
    except QueryError as error:
        return error.code


def positions(text):
    """Every cursor on ``text``: each line, columns 1 through its length + 1,
    plus one line on each side of it."""
    lines = text.split("\n")
    yield from ((0, 1), (len(lines) + 1, 1))
    for line, content in enumerate(lines, start=1):
        for col in range(1, len(content) + 2):
            yield line, col


def answers(checked, lowered, text, index, line_offset=0):
    """``resolve_cursor``'s outcome at every position of ``text``, after
    asserting that each equals the referee's."""
    referee = Referee(checked, lowered)
    out = {}
    for line, col in positions(text):
        expected = outcome(referee.resolve, line, col, line_offset)
        got = outcome(
            resolve_cursor, checked, lowered, line, col, line_offset=line_offset, index=index
        )
        assert got == expected, (line, col, got, expected)
        out[line, col] = got
    return out


def assert_resolves_places(found):
    assert any(isinstance(value, FocusTarget) for value in found.values())


@pytest.mark.parametrize(
    "size, seed", [("small", 0), ("small", 1), ("medium", 0), ("large", 0)]
)
def test_fuzz_program_resolves_as_the_linear_scans(size, seed):
    (crate,) = generate_fuzz_corpus(count=1, seed=seed, size=size)
    checked, lowered = lowered_from(crate.source)
    found = answers(checked, lowered, crate.source, CursorIndex(checked.program))
    assert_resolves_places(found)


EDGE_SOURCE = """\
struct Pair { x: u32, y: u32 }

fn a(v: u32) -> u32 {
    v + 1
} fn b(p: &mut Pair, q: &(u32, u32)) -> u32 {
    let s = p
        .x;
    let s = s + (*q).1;
    s
}
extern fn ext(v: u32) -> u32;

// a comment between functions

fn c(k: u32) -> u32 { let t = ext(k); t + a(k) }

fn d(k: u32) -> u32 {
    let mut n = k;
    while { let m = n; m > 0 } {
        n = n - 1;
    }
    *{ let r = &mut n; r } = 3;
    if { let g = n; g > 1 } { n } else { k }
}
"""


@pytest.mark.parametrize("shared", [True, False], ids=["shared_index", "own_index"])
def test_edge_cases_resolve_as_the_linear_scans(shared):
    """``} fn b() {`` on one line, a field access over two lines, a
    shadowing ``let``, an ``extern fn`` line, blank and comment lines
    between functions, and ``let``s inside conditions and an assignment
    target; with one index for every query and with none."""
    checked, lowered = lowered_from(EDGE_SOURCE)
    index = CursorIndex(checked.program) if shared else None
    found = answers(checked, lowered, EDGE_SOURCE, index)
    # The closing brace of `a` and the start of `b` share line 5.
    assert found[5, 1] == QueryError.NO_PLACE_AT_POSITION
    assert found[5, 8].fn_name == "b" and found[5, 8].label == "p"
    # `p\n.x` is one place expression, reached from both of its lines.
    assert found[7, 9].label == "(*p).0" and found[7, 9].span.start_line == 6
    # A shadowing `let s`: both names and the `s` read on its right.
    assert found[6, 9].label == found[8, 9].label == found[8, 13].label == "s"
    for line in (11, 12, 13, 14):
        assert found[line, 1] == QueryError.POSITION_OUT_OF_RANGE
    read_t = EDGE_SOURCE.split("\n")[14].index("t + a") + 1
    assert found[15, read_t].fn_name == "c" and found[15, read_t].label == "t"
    # A `let` name in the body is a binding; one in a condition never was.
    assert found[18, 13].label == "n"
    assert found[19, 17] == found[23, 14] == QueryError.NO_PLACE_AT_POSITION


UNITS = [
    ("lib", "fn helper(v: u32) -> u32 {\n    let w = v + 1;\n    w * 2\n}"),
    ("util", "// helpers\n\nfn twice(x: u32) -> u32 {\n    helper(x) + helper(x)\n}"),
    ("main", "fn compute(a: u32, b: u32) -> u32 {\n    let x = twice(a);\n    x + b\n}"),
]


def test_three_unit_workspace_queried_by_unit():
    session = AnalysisSession()
    session.open_units(UNITS)
    checked, lowered, index = session._checked, session._lowered, session._cursor_index
    for name, text in UNITS:
        offset, lines = session._unit_lines[name]
        assert lines == len(text.split("\n"))
        found = answers(checked, lowered, text, index, line_offset=offset)
        assert_resolves_places(found)
    offset = session._unit_lines["main"][0]
    target = resolve_cursor(checked, lowered, 3, 5, line_offset=offset, index=index)
    assert (target.fn_name, target.label, target.span.start_line) == ("compute", "x", 3 + offset)


FN_SOURCE = "fn f(a: u32) -> u32 {\n    let b = a + 1;\n    b\n}"


def test_edit_above_a_function_moves_its_cursors():
    session = AnalysisSession()
    session.open_unit("main", FN_SOURCE)
    before = session.focus(line=3, col=5)
    assert (before["function"], before["target"], before["seed_span"]) == ("f", "b", [3, 5, 3, 6])
    served = session._cursor_index

    session.update_unit("main", "// moved\n" + FN_SOURCE)
    assert session._cursor_index is not served
    after = session.focus(line=4, col=5)
    assert (after["function"], after["target"], after["seed_span"]) == ("f", "b", [4, 5, 4, 6])
    checked, lowered, index = session._checked, session._lowered, session._cursor_index
    assert outcome(resolve_cursor, checked, lowered, 1, 1, index=index) == (
        QueryError.POSITION_OUT_OF_RANGE
    )
    assert outcome(resolve_cursor, checked, lowered, 3, 5, index=index) == (
        QueryError.NO_PLACE_AT_POSITION
    )
    answers(checked, lowered, session.source, index)


def test_failed_update_keeps_the_served_index():
    session = AnalysisSession()
    session.open_unit("main", FN_SOURCE)
    checked, lowered, index = session._checked, session._lowered, session._cursor_index
    served = answers(checked, lowered, FN_SOURCE, index)

    with pytest.raises(ReproError):
        session.update_unit("main", "// moved\n" + FN_SOURCE.replace("a + 1", "a + true"))
    assert session._cursor_index is index
    assert session._checked is checked
    for (line, col), answer in served.items():
        assert outcome(resolve_cursor, checked, lowered, line, col, index=index) == answer
    # The kept index has its tables: a focus builds none.
    assert cursor_index_spans(session, line=3, col=5) == []


def _span_names(span):
    yield span.name, span.attrs
    for child in span.children:
        yield from _span_names(child)


def cursor_index_spans(session, **query):
    with start_trace("focus") as trace:
        session.focus(**query)
    return sorted(
        sorted(attrs.items()) for name, attrs in _span_names(trace.root) if name == "cursor_index"
    )


def test_cursor_index_span_only_when_a_query_builds_a_table():
    session = AnalysisSession()
    session.open_units(UNITS)
    first = cursor_index_spans(session, unit="main", line=3, col=5)
    assert first == [[("expressions", 3), ("fn", "compute")], [("functions", 3)]]
    assert cursor_index_spans(session, unit="main", line=2, col=9) == []
    assert cursor_index_spans(session, unit="lib", line=3, col=5) == [
        [("expressions", 2), ("fn", "helper")]
    ]
    session.update_unit("lib", UNITS[0][1].replace("v + 1", "v + 2"))
    assert cursor_index_spans(session, unit="lib", line=3, col=5) == [
        [("expressions", 2), ("fn", "helper")], [("functions", 3)]
    ]
