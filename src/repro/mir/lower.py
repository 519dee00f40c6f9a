"""Lowering from the MiniRust AST to MIR.

The lowering mirrors rustc's HIR→MIR translation closely enough that the
information flow analysis sees the same shape of program as Flowistry does
(compare Figure 1 of the paper):

* expressions are flattened into temporaries ``_n``,
* ``if``/``while`` become ``switch`` terminators over boolean discriminants,
* function calls become block terminators with an explicit destination place
  and continuation block,
* field accesses through references insert explicit ``Deref`` projections
  (surface auto-deref is resolved here).

Logical ``&&``/``||`` are lowered as strict binary operations rather than as
short-circuiting branches; this is a sound over-approximation for information
flow (the result still depends on both operands) and keeps the CFG small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import LoweringError, Span
from repro.lang import ast
from repro.obs import stage as obs_stage
from repro.lang.typeck import CheckedProgram
from repro.lang.types import (
    BOOL,
    Mutability,
    RefType,
    StructType,
    TupleType,
    Type,
    U32,
    UNIT,
)
from repro.mir.ir import (
    Aggregate,
    AggregateKind,
    BasicBlock,
    BinaryOp,
    Body,
    CallTerminator,
    Constant,
    Copy,
    Goto,
    Local,
    Move,
    Operand,
    Place,
    Ref,
    Return,
    Rvalue,
    Statement,
    SwitchBool,
    Terminator,
    UnaryOp,
    Unreachable,
    Use,
    RETURN_LOCAL,
)


@dataclass
class LoweredProgram:
    """All lowered function bodies of a checked program."""

    checked: CheckedProgram
    bodies: Dict[str, Body] = field(default_factory=dict)

    def body(self, name: str) -> Optional[Body]:
        return self.bodies.get(name)

    def local_bodies(self) -> List[Body]:
        """Bodies of functions defined in the local crate."""
        local = self.checked.program.local_crate
        return [body for body in self.bodies.values() if body.crate == local]

    def bodies_in_crate(self, crate: str) -> List[Body]:
        return [body for body in self.bodies.values() if body.crate == crate]


class _LoopContext:
    """Targets for ``break``/``continue`` inside the innermost loop."""

    def __init__(self, break_target: int, continue_target: int):
        self.break_target = break_target
        self.continue_target = continue_target


class FunctionLowerer:
    """Lowers a single function body into a :class:`Body`."""

    def __init__(self, checked: CheckedProgram, decl: ast.FnDecl):
        if decl.body is None:
            raise LoweringError(f"cannot lower extern function {decl.name!r}", decl.span)
        self.checked = checked
        self.decl = decl
        self.registry = checked.registry
        self.locals: List[Local] = []
        self.blocks: List[BasicBlock] = []
        self.place_exprs: List[Tuple[Span, Place]] = []
        self.scopes: List[Dict[str, int]] = [{}]
        self.loop_stack: List[_LoopContext] = []
        self.current_block = 0
        self.return_block = 0

    # -- local and block management --------------------------------------------

    def _new_local(
        self,
        ty: Type,
        name: Optional[str] = None,
        is_arg: bool = False,
        mutable: bool = True,
        span: Span = None,
    ) -> int:
        index = len(self.locals)
        self.locals.append(
            Local(
                index=index,
                ty=ty,
                name=name,
                is_arg=is_arg,
                mutable=mutable,
                span=span or self.decl.span,
            )
        )
        return index

    def _new_block(self) -> int:
        self.blocks.append(BasicBlock())
        return len(self.blocks) - 1

    def _block(self, index: Optional[int] = None) -> BasicBlock:
        return self.blocks[self.current_block if index is None else index]

    def _emit(self, place: Place, rvalue: Rvalue, span: Span) -> None:
        self._block().statements.append(Statement.assign(place, rvalue, span))

    def _terminate(self, terminator: Terminator, block: Optional[int] = None) -> None:
        self._block(block).terminator = terminator

    def _switch_to(self, block: int) -> None:
        self.current_block = block

    # -- scope management ----------------------------------------------------------

    def _push_scope(self) -> None:
        self.scopes.append({})

    def _pop_scope(self) -> None:
        self.scopes.pop()

    def _declare(self, name: str, local: int) -> None:
        self.scopes[-1][name] = local

    def _lookup(self, name: str, span: Span) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise LoweringError(f"unbound variable {name!r} during lowering", span)

    # -- entry point -------------------------------------------------------------------

    def lower(self) -> Body:
        signature = self.checked.signatures[self.decl.name]
        ret_ty = self.registry.resolve(self.decl.ret_type)
        self._new_local(ret_ty, name=None, span=self.decl.span)

        for param in self.decl.params:
            index = self._new_local(
                self.registry.resolve(param.ty),
                name=param.name,
                is_arg=True,
                mutable=False,
                span=param.span,
            )
            self._declare(param.name, index)

        entry = self._new_block()
        self.return_block = self._new_block()
        assert self.decl.body is not None
        body_end = self.decl.body.span.end_point()
        self._terminate(Return(span=body_end), block=self.return_block)
        self._switch_to(entry)

        result = self._lower_block_expr(self.decl.body)
        if not isinstance(ret_ty, type(UNIT)) or result is not None:
            if result is not None:
                tail = self.decl.body.tail
                tail_span = tail.span if tail is not None else self.decl.body.span.end_point()
                self._emit(Place.from_local(RETURN_LOCAL), Use(result), tail_span)
        self._terminate(Goto(target=self.return_block, span=body_end))

        body = Body(
            fn_name=self.decl.name,
            locals=self.locals,
            arg_count=len(self.decl.params),
            blocks=self.blocks,
            signature=signature,
            crate=self.decl.crate or self.checked.fn_crates.get(self.decl.name, "main"),
            span=self.decl.span,
            place_exprs=tuple(self.place_exprs),
        )
        _prune_unreachable(body)
        return body

    # -- blocks ---------------------------------------------------------------------------

    def _lower_block_expr(self, block: ast.Block) -> Optional[Operand]:
        """Lower a block; return the operand holding its tail value (or None)."""
        self._push_scope()
        try:
            for stmt in block.stmts:
                self._lower_stmt(stmt)
            if block.tail is not None:
                return self._lower_to_operand(block.tail)
            return None
        finally:
            self._pop_scope()

    def _lower_block_into(self, block: ast.Block, dest: Place) -> None:
        """Lower a block whose value should be stored into ``dest``."""
        self._push_scope()
        try:
            for stmt in block.stmts:
                self._lower_stmt(stmt)
            if block.tail is not None:
                self._lower_into(dest, block.tail)
            else:
                self._emit(dest, Use(Constant(None, UNIT)), block.span)
        finally:
            self._pop_scope()

    # -- statements ------------------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.LetStmt):
            ty = stmt.declared_ty
            if ty is None and stmt.init is not None and stmt.init.ty is not None:
                ty = stmt.init.ty
            if ty is None:
                ty = UNIT
            name_span = stmt.name_span if not stmt.name_span.is_dummy() else stmt.span
            local = self._new_local(
                self.registry.resolve(ty),
                name=stmt.name,
                mutable=stmt.mutable,
                span=name_span,
            )
            if stmt.init is not None:
                self._lower_into(Place.from_local(local), stmt.init, span=stmt.span)
            self._declare(stmt.name, local)
            return

        if isinstance(stmt, ast.AssignStmt):
            place = self._lower_to_place(stmt.target)
            self._lower_into(place, stmt.value, span=stmt.span)
            return

        if isinstance(stmt, ast.ExprStmt):
            self._lower_to_operand(stmt.expr)
            return

        if isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
            return

        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._lower_into(Place.from_local(RETURN_LOCAL), stmt.value)
            self._terminate(Goto(target=self.return_block, span=stmt.span))
            # Anything after a return in the same surface block is dead code;
            # keep lowering it into a fresh (unreachable) block.
            self._switch_to(self._new_block())
            return

        if isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise LoweringError("'break' outside of a loop", stmt.span)
            self._terminate(Goto(target=self.loop_stack[-1].break_target, span=stmt.span))
            self._switch_to(self._new_block())
            return

        if isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise LoweringError("'continue' outside of a loop", stmt.span)
            self._terminate(Goto(target=self.loop_stack[-1].continue_target, span=stmt.span))
            self._switch_to(self._new_block())
            return

        raise LoweringError(f"unsupported statement {type(stmt).__name__}", stmt.span)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        cond_block = self._new_block()
        body_block = self._new_block()
        exit_block = self._new_block()

        self._terminate(Goto(target=cond_block, span=stmt.cond.span))
        self._switch_to(cond_block)
        cond_operand = self._lower_to_operand(stmt.cond)
        self._terminate(
            SwitchBool(
                discr=cond_operand,
                true_target=body_block,
                false_target=exit_block,
                span=stmt.cond.span,
            )
        )

        self._switch_to(body_block)
        self.loop_stack.append(_LoopContext(exit_block, cond_block))
        try:
            self._lower_block_expr(stmt.body)
        finally:
            self.loop_stack.pop()
        self._terminate(Goto(target=cond_block, span=stmt.body.span.end_point()))

        self._switch_to(exit_block)

    # -- expression lowering ---------------------------------------------------------------

    def _expr_ty(self, expr: ast.Expr) -> Type:
        if expr.ty is None:
            raise LoweringError(
                f"expression of kind {expr.kind.value} was not type checked", expr.span
            )
        return self.registry.resolve(expr.ty)

    def _temp(self, ty: Type, span: Span) -> Place:
        return Place.from_local(self._new_local(ty, span=span))

    def _operand_for_place(self, place: Place, ty: Type) -> Operand:
        if ty.is_copy():
            return Copy(place)
        return Move(place)

    def _lower_to_operand(self, expr: ast.Expr) -> Operand:
        """Lower ``expr`` and return an operand holding its value."""
        if isinstance(expr, ast.Literal):
            return Constant(expr.value, self._expr_ty(expr))
        if expr.is_place():
            place = self._lower_to_place(expr)
            return self._operand_for_place(place, self._expr_ty(expr))
        dest = self._temp(self._expr_ty(expr), expr.span)
        self._lower_into(dest, expr)
        return self._operand_for_place(dest, self._expr_ty(expr))

    def _lower_to_place(self, expr: ast.Expr) -> Place:
        """Lower a place expression to a MIR place (inserting auto-derefs),
        and record the place under the expression's span."""
        if isinstance(expr, ast.Var):
            place = Place.from_local(self._lookup(expr.name, expr.span))
        elif isinstance(expr, ast.Deref):
            place = self._lower_place_or_temp(expr.base).project_deref()
        elif isinstance(expr, ast.FieldAccess):
            place = self._lower_place_or_temp(expr.base)
            base_ty = self._expr_ty(expr.base)
            while isinstance(base_ty, RefType):
                place = place.project_deref()
                base_ty = base_ty.pointee
            index = expr.field_index
            if index is None:
                if isinstance(expr.fld, int):
                    index = expr.fld
                else:
                    raise LoweringError(
                        f"unresolved field {expr.fld!r} during lowering", expr.span
                    )
            place = place.project_field(index)
        else:
            raise LoweringError(
                f"expression of kind {expr.kind.value} is not a place", expr.span
            )
        self.place_exprs.append((expr.span, place))
        return place

    def _lower_place_or_temp(self, expr: ast.Expr) -> Place:
        """Lower an expression used as the base of a projection."""
        if expr.is_place():
            return self._lower_to_place(expr)
        dest = self._temp(self._expr_ty(expr), expr.span)
        self._lower_into(dest, expr)
        return dest

    def _lower_into(
        self, dest: Place, expr: ast.Expr, span: Optional[Span] = None
    ) -> None:
        """Lower ``expr`` so that its value ends up stored in ``dest``.

        ``span`` overrides the span of the final assignment into ``dest`` —
        used by ``let``/assignment statements so the defining write carries
        the whole statement's source range (the way rustc's MIR does),
        rather than just the initialiser expression's.  Sub-expression
        temporaries keep their own precise spans either way.
        """
        into_span = span if span is not None else expr.span
        if isinstance(expr, ast.Literal):
            self._emit(dest, Use(Constant(expr.value, self._expr_ty(expr))), into_span)
            return

        if expr.is_place():
            place = self._lower_to_place(expr)
            self._emit(
                dest, Use(self._operand_for_place(place, self._expr_ty(expr))), into_span
            )
            return

        if isinstance(expr, ast.Unary):
            operand = self._lower_to_operand(expr.operand)
            self._emit(dest, UnaryOp(expr.op, operand), into_span)
            return

        if isinstance(expr, ast.Binary):
            lhs = self._lower_to_operand(expr.lhs)
            rhs = self._lower_to_operand(expr.rhs)
            self._emit(dest, BinaryOp(expr.op, lhs, rhs), into_span)
            return

        if isinstance(expr, ast.Borrow):
            place = self._lower_to_place(expr.place)
            mutability = Mutability.MUT if expr.mutable else Mutability.SHARED
            self._emit(dest, Ref(mutability, place), into_span)
            return

        if isinstance(expr, ast.Call):
            args = [self._lower_to_operand(arg) for arg in expr.args]
            continuation = self._new_block()
            self._terminate(
                CallTerminator(
                    func=expr.func,
                    args=args,
                    destination=dest,
                    target=continuation,
                    span=into_span,
                )
            )
            self._switch_to(continuation)
            return

        if isinstance(expr, ast.TupleExpr):
            ops = tuple(self._lower_to_operand(element) for element in expr.elements)
            self._emit(dest, Aggregate(AggregateKind.TUPLE, ops), into_span)
            return

        if isinstance(expr, ast.StructLit):
            struct = self.registry.lookup(expr.struct_name)
            if struct is None:
                raise LoweringError(f"unknown struct {expr.struct_name!r}", expr.span)
            by_name = {name: value for name, value in expr.fields}
            ops = tuple(
                self._lower_to_operand(by_name[field_name])
                for field_name in struct.field_names()
            )
            self._emit(
                dest,
                Aggregate(AggregateKind.STRUCT, ops, struct_name=struct.name),
                into_span,
            )
            return

        if isinstance(expr, ast.If):
            self._lower_if(dest, expr)
            return

        if isinstance(expr, ast.BlockExpr):
            self._lower_block_into(expr.block, dest)
            return

        raise LoweringError(f"unsupported expression {type(expr).__name__}", expr.span)

    def _lower_if(self, dest: Place, expr: ast.If) -> None:
        cond = self._lower_to_operand(expr.cond)
        then_block = self._new_block()
        else_block = self._new_block()
        join_block = self._new_block()

        self._terminate(
            SwitchBool(
                discr=cond,
                true_target=then_block,
                false_target=else_block,
                span=expr.cond.span,
            )
        )

        self._switch_to(then_block)
        self._lower_block_into(expr.then_block, dest)
        self._terminate(Goto(target=join_block, span=expr.then_block.span.end_point()))

        self._switch_to(else_block)
        if expr.else_block is not None:
            self._lower_block_into(expr.else_block, dest)
            else_end = expr.else_block.span.end_point()
        else:
            self._emit(dest, Use(Constant(None, UNIT)), expr.span)
            else_end = expr.span.end_point()
        self._terminate(Goto(target=join_block, span=else_end))

        self._switch_to(join_block)


def _prune_unreachable(body: Body) -> None:
    """Remove blocks not reachable from the entry block and remap targets.

    Lowering `return`/`break` statements leaves behind empty unreachable
    blocks; removing them keeps the dominator and dataflow computations clean.
    """
    reachable: List[int] = []
    seen = {0}
    stack = [0]
    while stack:
        block = stack.pop()
        reachable.append(block)
        for successor in body.blocks[block].terminator.successors():
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    reachable.sort()
    remap = {old: new for new, old in enumerate(reachable)}

    new_blocks = [body.blocks[old] for old in reachable]
    for block in new_blocks:
        terminator = block.terminator
        if isinstance(terminator, Goto):
            terminator.target = remap[terminator.target]
        elif isinstance(terminator, SwitchBool):
            terminator.true_target = remap[terminator.true_target]
            terminator.false_target = remap[terminator.false_target]
        elif isinstance(terminator, CallTerminator):
            terminator.target = remap[terminator.target]
    body.blocks = new_blocks


def lower_function(checked: CheckedProgram, name: str) -> Body:
    """Lower a single named function of ``checked`` to MIR."""
    decl = checked.program.function(name)
    if decl is None:
        raise LoweringError(f"unknown function {name!r}")
    return FunctionLowerer(checked, decl).lower()


def lower_program(
    checked: CheckedProgram, previous: Optional[LoweredProgram] = None
) -> LoweredProgram:
    """Lower every function with a body (in every crate) to MIR.

    A function whose checked form ``checked`` reused from an earlier check
    keeps its body from ``previous``, the lowering of that earlier check:
    the body derives from nothing else.
    """
    with obs_stage("mir_lower") as sp:
        lowered = LoweredProgram(checked=checked)
        kept = previous.bodies if previous is not None else {}
        for crate in checked.program.crates:
            for decl in crate.functions():
                if decl.body is None:
                    continue
                body = kept.get(decl.name) if decl.name in checked.reused else None
                if body is None:
                    body = FunctionLowerer(checked, decl).lower()
                lowered.bodies[decl.name] = body
        if sp is not None:
            sp.set(bodies=len(lowered.bodies))
        return lowered
