"""The cursor index against an independent referee.

``resolve_cursor`` finds the body under a cursor by bisection and tests
only the binding names and place expressions filed under the cursor's line
(:class:`~repro.focus.resolve.CursorIndex`), reading the places lowering
recorded.  The referee below shares none of that: it scans every function
of the checked AST and walks the whole body of the one it hits, resolving
every name through its own scope walk and every place expression through
its own translation from the checker's types.  At every position of every
input, both must give the same :class:`FocusTarget` or the same
:class:`QueryError` code.
"""

from __future__ import annotations

import pytest

from helpers import lowered_from

from repro.errors import QueryError, ReproError, Span
from repro.eval.corpus import generate_fuzz_corpus
from repro.focus.resolve import CursorIndex, FocusTarget, resolve_cursor
from repro.lang import ast
from repro.lang.types import RefType
from repro.mir.ir import Place
from repro.obs import start_trace
from repro.service.session import AnalysisSession


class _ScopeWalk:
    """One function's bindings and place expressions, in a preorder walk
    of its body.

    Names resolve by lexical scope: the parameters first, then each
    block's ``let``s, each declared after its initialiser, with a block's
    bindings ending with the block.  A binding stands for the local
    declared at its span, and a place expression's place is translated
    from the checker's types: a field access through references derefs
    each of them first.  A place whose base is no named local is ``None``.
    """

    def __init__(self, fn, body):
        self.local_at = {local.span: local.index for local in body.user_locals()}
        self.bindings = []
        self.places = []
        scope = {}
        for param in fn.params:
            self._declare(scope, param.name, param.span)
        self._block(fn.body, scope)

    def _declare(self, scope, name, span):
        self.bindings.append(span)
        scope[name] = self.local_at[span]

    def _block(self, block, outer):
        scope = dict(outer)
        for stmt in block.stmts:
            if isinstance(stmt, ast.LetStmt):
                if stmt.init is not None:
                    self._expr(stmt.init, scope)
                self._declare(scope, stmt.name, stmt.name_span)
            elif isinstance(stmt, ast.AssignStmt):
                self._expr(stmt.target, scope)
                self._expr(stmt.value, scope)
            elif isinstance(stmt, ast.ExprStmt):
                self._expr(stmt.expr, scope)
            elif isinstance(stmt, ast.WhileStmt):
                self._expr(stmt.cond, scope)
                self._block(stmt.body, scope)
            elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
                self._expr(stmt.value, scope)
        if block.tail is not None:
            self._expr(block.tail, scope)

    def _expr(self, expr, scope):
        if expr.is_place():
            self.places.append((expr.span, self._place(expr, scope)))
        if isinstance(expr, ast.If):
            self._expr(expr.cond, scope)
            self._block(expr.then_block, scope)
            if expr.else_block is not None:
                self._block(expr.else_block, scope)
        elif isinstance(expr, ast.BlockExpr):
            self._block(expr.block, scope)
        else:
            for child in expr.children():
                self._expr(child, scope)

    def _place(self, expr, scope):
        if isinstance(expr, ast.Var):
            return Place(scope[expr.name], ())
        if not isinstance(expr, (ast.Deref, ast.FieldAccess)):
            return None
        base = self._place(expr.base, scope)
        if base is None:
            return None
        if isinstance(expr, ast.Deref):
            return base.project_deref()
        ty = expr.base.ty
        while isinstance(ty, RefType):
            base, ty = base.project_deref(), ty.pointee
        return base.project_field(expr.field_index if expr.field_index is not None else expr.fld)


class Referee:
    """The resolver with linear scans and a scope walk: every function of
    the program, then every binding and place expression of the whole
    function hit.  Each body is walked once, up front."""

    def __init__(self, checked, lowered):
        self.lowered = lowered
        self.functions = []
        for fn in checked.program.all_functions():
            if fn.body is not None:
                body = lowered.body(fn.name)
                self.functions.append((fn, body, _ScopeWalk(fn, body)))

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
        fn, body, walk = hit

        for span in walk.bindings:
            if span.contains(at, col):
                place = Place(walk.local_at[span], ())
                return FocusTarget(fn.name, place, place.pretty(body), span, span)

        resolved = [
            (span, place)
            for span, place in walk.places
            if place is not None and span.contains(at, col)
        ]
        if not resolved:
            raise QueryError("no place", code=QueryError.NO_PLACE_AT_POSITION)
        span, place = min(resolved, key=lambda pair: pair[0].tightness())
        return FocusTarget(
            fn.name, place, place.pretty(body), span, body.locals[place.local].span
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
        got = outcome(resolve_cursor, lowered, line, col, line_offset=line_offset, index=index)
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
    found = answers(checked, lowered, crate.source, CursorIndex(lowered))
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
    index = CursorIndex(lowered) if shared else None
    found = answers(checked, lowered, EDGE_SOURCE, index)
    # The closing brace of `a` and the start of `b` share line 5.
    assert found[5, 1] == QueryError.NO_PLACE_AT_POSITION
    assert found[5, 8].fn_name == "b" and found[5, 8].label == "p"
    # `p\n.x` is one place expression, reached from both of its lines.
    assert found[7, 9].label == "(*p).0" and found[7, 9].span.start_line == 6
    # A shadowing `let s`: the `s` read on its right is the first `s`; its
    # name and the tail read are the second.
    first, second = Span(6, 9, 6, 10), Span(8, 9, 8, 10)
    assert found[6, 9].defining_span == found[8, 13].defining_span == first
    assert found[8, 9].defining_span == found[9, 5].defining_span == second
    assert found[8, 9].place != found[8, 13].place
    assert found[6, 9].label == found[8, 9].label == found[8, 13].label == "s"
    for line in (11, 12, 13, 14):
        assert found[line, 1] == QueryError.POSITION_OUT_OF_RANGE
    read_t = EDGE_SOURCE.split("\n")[14].index("t + a") + 1
    assert found[15, read_t].fn_name == "c" and found[15, read_t].label == "t"
    # Every `let` name is a binding: in the body, in a condition and in an
    # assignment target.
    assert found[18, 13].label == "n"
    assert [found[at].label for at in ((19, 17), (22, 12), (23, 14))] == ["m", "r", "g"]
    assert found[19, 17].defining_span == found[19, 24].defining_span == Span(19, 17, 19, 18)


SHADOW_SOURCES = [
    "fn f(a: u32) -> u32 {\n    let s = a + 1;\n    let s = s * 2;\n    s\n}",
    "fn g(a: u32) -> u32 {\n    let x = a + 1;\n    let y = {\n        let x = x * 2;\n"
    "        x + 1\n    };\n    x + y\n}",
]


@pytest.mark.parametrize(
    "source, names", zip(SHADOW_SOURCES, ["ass", "axyx"]), ids=["same_block", "nested_block"]
)
def test_shadowed_names_resolve_as_the_scope_walk(source, names):
    """Every binding, the shadowed ones included, is some cursor's answer."""
    checked, lowered = lowered_from(source)
    found = answers(checked, lowered, source, CursorIndex(lowered))
    answered = {
        (value.defining_span, value.label)
        for value in found.values()
        if isinstance(value, FocusTarget)
    }
    assert "".join(label for _, label in sorted(answered)) == names


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
    target = resolve_cursor(lowered, 3, 5, line_offset=offset, index=index)
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
    assert outcome(resolve_cursor, lowered, 1, 1, index=index) == (
        QueryError.POSITION_OUT_OF_RANGE
    )
    assert outcome(resolve_cursor, lowered, 3, 5, index=index) == (
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
        assert outcome(resolve_cursor, lowered, line, col, index=index) == answer
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
