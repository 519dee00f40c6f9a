"""Cursor resolution: from a ``(line, col)`` position to a MIR place.

The IDE contract of the paper's focus mode starts here: the user puts the
cursor somewhere in the source, and the engine must decide *which place* they
mean.  Resolution works on the type-checked AST (where every place expression
still has its surface span) and then translates the winning expression into
the lowered body's :class:`~repro.mir.ir.Place`, replaying the same
auto-deref insertion the lowering performs — so the resolved place is exactly
the one the dataflow analysis tracked.

The winning expression is the **innermost** place expression containing the
cursor: on ``*point.x`` a cursor over ``x`` resolves to the field, one over
``point`` to the base variable, and one on the ``*`` to the whole deref.
Cursors on a ``let`` binding's name or a parameter name resolve to the bound
variable itself.

A :class:`CursorIndex` makes finding the candidates a lookup: the function
under the cursor is found by bisection over the functions' starts, and
only the binding names and place expressions on the cursor's line are
tested.  The analysis service keeps one index per workspace generation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import QueryError, Span
from repro.lang import ast
from repro.lang.typeck import CheckedProgram
from repro.lang.types import RefType
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


class _FunctionLines(NamedTuple):
    """One function's cursor targets, each under every line its span covers."""

    bindings: Dict[int, List[Tuple[str, Span]]]  # parameters, then ``let``s
    places: Dict[int, List[ast.Expr]]  # place expressions, in walk order


def _add_by_line(table: dict, span: Span, entry) -> None:
    for line in range(span.start_line, span.end_line + 1):
        table.setdefault(line, []).append(entry)


class CursorIndex:
    """Where a cursor can land in one program, each table built on first use.

    The function table lists the functions with bodies by span start.
    Items never nest, so the last function starting at or before a cursor
    is the only one that can hold it.  A function's own table, built on the
    first query into it, files its binding names and its place expressions
    under every line they cover, in the order of a walk of its body, so a
    query tests only the entries on its line.

    Readers on several threads may share one index.  Each table is built
    whole, published with one assignment and never changed afterwards, so
    a reader sees either no table or a complete one; two threads racing to
    build the same table build equal ones, and keeping either is right.
    """

    __slots__ = ("_program", "_functions", "_lines")

    def __init__(self, program: ast.Program):
        self._program = program
        self._functions: Optional[Tuple[List[Tuple[int, int]], List[ast.FnDecl]]] = None
        self._lines: Dict[str, _FunctionLines] = {}

    def functions(self) -> Tuple[List[Tuple[int, int]], List[ast.FnDecl]]:
        """The functions with bodies sorted by span start, and those starts."""
        table = self._functions
        if table is None:
            with obs_span("cursor_index") as sp:
                functions = sorted(
                    (fn for fn in self._program.all_functions() if fn.body is not None),
                    key=lambda fn: fn.span[:2],
                )
                table = ([fn.span[:2] for fn in functions], functions)
                if sp is not None:
                    sp.set(functions=len(functions))
            self._functions = table
        return table

    def lines_of(self, fn: ast.FnDecl) -> _FunctionLines:
        """``fn``'s binding names and place expressions by line."""
        lines = self._lines.get(fn.name)
        if lines is None:
            assert fn.body is not None
            with obs_span("cursor_index", fn=fn.name) as sp:
                places: List[ast.Expr] = []
                lets: List[ast.LetStmt] = []
                _collect_block(fn.body, places, lets, True)
                lines = _FunctionLines({}, {})
                for param in fn.params:
                    _add_by_line(lines.bindings, param.span, (param.name, param.span))
                for stmt in lets:
                    _add_by_line(lines.bindings, stmt.name_span, (stmt.name, stmt.name_span))
                for expr in places:
                    _add_by_line(lines.places, expr.span, expr)
                if sp is not None:
                    sp.set(expressions=len(places))
            self._lines[fn.name] = lines
        return lines


def resolve_function_at(index: CursorIndex, line: int, col: int) -> Optional[ast.FnDecl]:
    """The function whose body encloses the cursor, if any."""
    starts, functions = index.functions()
    at = bisect_right(starts, (line, col)) - 1
    if at >= 0 and functions[at].span.contains(line, col):
        return functions[at]
    return None


def _place_expr_candidates(lines: _FunctionLines, line: int, col: int) -> List[ast.Expr]:
    """Every place expression of the function whose span contains the cursor."""
    return [expr for expr in lines.places.get(line, ()) if expr.span.contains(line, col)]


def _binding_at(lines: _FunctionLines, line: int, col: int) -> Optional[Tuple[str, Span]]:
    """A ``let`` name or parameter name under the cursor, if any."""
    for name, span in lines.bindings.get(line, ()):
        if span.contains(line, col):
            return name, span
    return None


def _collect_block(
    block: ast.Block, places: List[ast.Expr], lets: List[ast.LetStmt], named: bool
) -> None:
    """Append ``block``'s place expressions to ``places``, in the preorder of
    :func:`ast.walk_block`, and while ``named`` its ``let`` statements to
    ``lets``, each before the ones nested in its initialiser.

    The ``let``s inside a condition or an assignment target are not
    collected: cursors on them never named a binding.
    """
    for stmt in block.stmts:
        if isinstance(stmt, ast.LetStmt):
            if named:
                lets.append(stmt)
            if stmt.init is not None:
                _collect_expr(stmt.init, places, lets, named)
        elif isinstance(stmt, ast.AssignStmt):
            _collect_expr(stmt.target, places, lets, False)
            _collect_expr(stmt.value, places, lets, named)
        elif isinstance(stmt, ast.ExprStmt):
            _collect_expr(stmt.expr, places, lets, named)
        elif isinstance(stmt, ast.WhileStmt):
            _collect_expr(stmt.cond, places, lets, False)
            _collect_block(stmt.body, places, lets, named)
        elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            _collect_expr(stmt.value, places, lets, named)
    if block.tail is not None:
        _collect_expr(block.tail, places, lets, named)


def _collect_expr(
    expr: ast.Expr, places: List[ast.Expr], lets: List[ast.LetStmt], named: bool
) -> None:
    if expr.is_place():
        places.append(expr)
    if isinstance(expr, ast.If):
        _collect_expr(expr.cond, places, lets, False)
        _collect_block(expr.then_block, places, lets, named)
        if expr.else_block is not None:
            _collect_block(expr.else_block, places, lets, named)
    elif isinstance(expr, ast.BlockExpr):
        _collect_block(expr.block, places, lets, named)
    else:
        for child in expr.children():
            _collect_expr(child, places, lets, named)


def place_expr_to_mir(expr: ast.Expr, body: Body) -> Optional[Place]:
    """Translate an AST place expression into the lowered body's place.

    Mirrors :meth:`repro.mir.lower.FunctionLowerer._lower_to_place`: variable
    names map to named locals, field accesses insert the auto-derefs the
    lowering inserts for access through references, and explicit derefs add a
    ``Deref`` projection.  Returns ``None`` when the expression's base is not
    a named local (e.g. a field of a call result, which lives in a
    compiler temporary the cursor cannot name).
    """
    if isinstance(expr, ast.Var):
        local = body.local_by_name(expr.name)
        if local is None:
            return None
        return Place.from_local(local.index)
    if isinstance(expr, ast.Deref):
        base = place_expr_to_mir(expr.base, body)
        return base.project_deref() if base is not None else None
    if isinstance(expr, ast.FieldAccess):
        base = place_expr_to_mir(expr.base, body)
        if base is None:
            return None
        base_ty = expr.base.ty
        while isinstance(base_ty, RefType):
            base = base.project_deref()
            base_ty = base_ty.pointee
        index = expr.field_index
        if index is None:
            index = expr.fld if isinstance(expr.fld, int) else None
        if index is None:
            return None
        return base.project_field(index)
    return None


def resolve_cursor(
    checked: CheckedProgram,
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
    ``checked``'s program that a caller keeps across queries; without one,
    this query builds its own.

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
        index = CursorIndex(checked.program)
    at = line + line_offset
    fn = resolve_function_at(index, at, col)
    if fn is None:
        raise QueryError(
            f"position {line}:{col} is not inside any function body",
            code=QueryError.POSITION_OUT_OF_RANGE,
        )
    body = lowered.body(fn.name)
    if body is None:
        raise QueryError(
            f"function {fn.name!r} has no lowered body",
            code=QueryError.UNKNOWN_FUNCTION,
        )

    # A cursor on a binding occurrence (let name, parameter) wins outright.
    lines = index.lines_of(fn)
    binding = _binding_at(lines, at, col)
    if binding is not None:
        name, span = binding
        local = body.local_by_name(name)
        if local is not None:
            place = Place.from_local(local.index)
            return FocusTarget(
                fn_name=fn.name,
                place=place,
                label=place.pretty(body),
                span=span,
                defining_span=local.span,
            )

    candidates = _place_expr_candidates(lines, at, col)
    resolved: List[Tuple[ast.Expr, Place]] = []
    for expr in candidates:
        place = place_expr_to_mir(expr, body)
        if place is not None:
            resolved.append((expr, place))
    if not resolved:
        raise QueryError(
            f"no place expression at {line}:{col} in function {fn.name!r}",
            code=QueryError.NO_PLACE_AT_POSITION,
        )
    expr, place = min(resolved, key=lambda pair: pair[0].span.tightness())
    return FocusTarget(
        fn_name=fn.name,
        place=place,
        label=place.pretty(body),
        span=expr.span,
        defining_span=body.locals[place.local].span,
    )
