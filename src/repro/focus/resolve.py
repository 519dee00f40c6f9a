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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import QueryError, Span
from repro.lang import ast
from repro.lang.typeck import CheckedProgram
from repro.lang.types import RefType
from repro.mir.ir import Body, Location, Place
from repro.mir.lower import LoweredProgram


@dataclass(frozen=True)
class FocusTarget:
    """The result of resolving a cursor: a place within one function."""

    fn_name: str
    place: Place
    label: str          # the place rendered with source-level names, e.g. "(*p).0"
    span: Span          # span of the expression the cursor hit
    defining_span: Span  # span of the base variable's definition


def resolve_function_at(
    checked: CheckedProgram, line: int, col: int
) -> Optional[ast.FnDecl]:
    """The function whose body encloses the cursor, if any."""
    best: Optional[ast.FnDecl] = None
    for fn in checked.program.all_functions():
        if fn.body is None:
            continue
        if fn.span.contains(line, col) and (
            best is None or fn.span.tightness() < best.span.tightness()
        ):
            best = fn
    return best


def _place_expr_candidates(fn: ast.FnDecl, line: int, col: int) -> List[ast.Expr]:
    """Every place expression of ``fn`` whose span contains the cursor."""
    assert fn.body is not None
    out: List[ast.Expr] = []
    for expr in ast.walk_block(fn.body):
        if expr.is_place() and expr.span.contains(line, col):
            out.append(expr)
    return out


def _binding_at(fn: ast.FnDecl, line: int, col: int) -> Optional[Tuple[str, Span]]:
    """A ``let`` name or parameter name under the cursor, if any."""
    for param in fn.params:
        if param.span.contains(line, col):
            return param.name, param.span
    assert fn.body is not None
    for stmt in _walk_stmts(fn.body):
        if isinstance(stmt, ast.LetStmt) and stmt.name_span.contains(line, col):
            return stmt.name, stmt.name_span
    return None


def _walk_stmts(block: ast.Block):
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


def _walk_stmts_of_expr(expr: ast.Expr):
    if isinstance(expr, ast.If):
        yield from _walk_stmts(expr.then_block)
        if expr.else_block is not None:
            yield from _walk_stmts(expr.else_block)
    elif isinstance(expr, ast.BlockExpr):
        yield from _walk_stmts(expr.block)
    else:
        for child in expr.children():
            yield from _walk_stmts_of_expr(child)


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
) -> FocusTarget:
    """Resolve a cursor position to the enclosing MIR place.

    ``line_offset`` moves ``line`` into the program's lines, for a cursor
    given relative to one unit of a joined workspace; error messages name
    the position as given.

    Raises :class:`QueryError` with a typed code when the position lies
    outside every function body (``position_out_of_range``) or inside one but
    not on any place expression (``no_place_at_position``).
    """
    if line < 1 or col < 1:
        raise QueryError(
            f"position {line}:{col} is not a valid 1-based source position",
            code=QueryError.POSITION_OUT_OF_RANGE,
        )
    at = line + line_offset
    fn = resolve_function_at(checked, at, col)
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
    binding = _binding_at(fn, at, col)
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

    candidates = _place_expr_candidates(fn, at, col)
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
