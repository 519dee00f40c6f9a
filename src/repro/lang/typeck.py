"""Type checking for MiniRust.

The checker performs the jobs the analysis needs from Oxide's type system:

* resolve struct types and field projections,
* assign a type to every expression (consumed by the MIR lowering),
* enforce the ownership-flavoured rules that matter for information flow:
  assignments require a mutable binding or a path through ``&mut``, borrows
  must borrow places, call arguments must match declared signatures,
* collect per-function signatures (:class:`repro.lang.ast.FnSig`), the only
  information the *modular* analysis is allowed to use about callees.

The full borrow checker (conflict detection between loans) is intentionally
out of scope: the paper's analysis consumes programs that already passed
rustc's borrow checker, and our corpus generator only produces
ownership-respecting programs.  What we do keep is everything needed to make
the analysis's modular reasoning meaningful — mutability qualifiers and
lifetime names on signatures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import Diagnostic, Span, TypeCheckError
from repro.lang import ast
from repro.obs import stage as obs_stage
from repro.lang.types import (
    BOOL,
    BoolType,
    Mutability,
    RefType,
    StructRegistry,
    StructType,
    TupleType,
    Type,
    U32,
    U32Type,
    UNIT,
    UnitType,
    projection_type,
    types_compatible,
)


@dataclass
class LocalInfo:
    """Information about one local binding in scope."""

    name: str
    ty: Type
    mutable: bool
    span: Span


class _Scope:
    """A stack of lexical scopes mapping variable names to :class:`LocalInfo`."""

    def __init__(self) -> None:
        self._frames: List[Dict[str, LocalInfo]] = [{}]

    def push(self) -> None:
        self._frames.append({})

    def pop(self) -> None:
        self._frames.pop()

    def declare(self, info: LocalInfo) -> None:
        self._frames[-1][info.name] = info

    def lookup(self, name: str) -> Optional[LocalInfo]:
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        return None


# What a function body's check reads besides the body itself: every struct
# (name, opacity, and each field's name and type, in order) and, by function
# name, every signature's crate and rendering.  Types are compared by
# rendering because their ``==`` is weaker: ``StructType`` compares by name
# only and ``RefType`` ignores lifetimes.
StructsKey = Tuple[Tuple[str, bool, Tuple[Tuple[str, str], ...]], ...]
EnvironmentKey = Tuple[StructsKey, Dict[str, Tuple[str, str]]]


@dataclass
class CheckedFunction:
    """A type-checked function: the declaration plus derived facts."""

    decl: ast.FnDecl
    signature: ast.FnSig
    locals: Dict[str, Type] = field(default_factory=dict)


@dataclass
class CheckedCrate:
    """A type-checked crate."""

    crate: ast.Crate
    functions: Dict[str, CheckedFunction] = field(default_factory=dict)


@dataclass
class CheckedProgram:
    """The result of checking a whole program.

    Downstream stages (MIR lowering, the information flow engine, the
    applications) consume this object rather than raw ASTs: it guarantees
    every expression has a type, every field access has a resolved index, and
    every called function has a known signature.

    ``env_key`` renders everything a function's check reads besides its own
    declaration (an ``EnvironmentKey``); ``reused`` names the functions
    whose checked form was taken over from a previous check.
    """

    program: ast.Program
    registry: StructRegistry
    signatures: Dict[str, ast.FnSig]
    crates: Dict[str, CheckedCrate]
    fn_crates: Dict[str, str]
    env_key: EnvironmentKey
    reused: FrozenSet[str] = frozenset()

    def function(self, name: str) -> Optional[CheckedFunction]:
        for checked in self.crates.values():
            if name in checked.functions:
                return checked.functions[name]
        return None

    def local_functions(self) -> List[CheckedFunction]:
        """Functions with bodies defined in the local crate."""
        local = self.crates.get(self.program.local_crate)
        if local is None:
            return []
        return [f for f in local.functions.values() if f.decl.has_body]

    def functions_with_bodies(self) -> List[CheckedFunction]:
        out: List[CheckedFunction] = []
        for checked in self.crates.values():
            out.extend(f for f in checked.functions.values() if f.decl.has_body)
        return out

    def signature(self, name: str) -> Optional[ast.FnSig]:
        return self.signatures.get(name)


# Signature elision helpers.  They are module functions rather than closures
# because a closure that calls itself holds its own cell, and every
# elaboration would leave that cycle behind for the garbage collector.


def _name_refs(ty: Type, fresh: Callable[[str], str], prefix: str) -> Type:
    """``ty`` with each un-annotated reference given the lifetime ``fresh(prefix)``."""
    if isinstance(ty, RefType):
        lifetime = ty.lifetime if ty.lifetime is not None else fresh(prefix)
        return RefType(_name_refs(ty.pointee, fresh, prefix), ty.mutability, lifetime)
    if isinstance(ty, TupleType):
        return TupleType(tuple(_name_refs(t, fresh, prefix) for t in ty.elements))
    return ty


def _elide_output(ty: Type, lifetime: str) -> Type:
    """``ty`` with each un-annotated reference given ``lifetime``."""
    if isinstance(ty, RefType):
        named = ty.lifetime if ty.lifetime is not None else lifetime
        return RefType(_elide_output(ty.pointee, lifetime), ty.mutability, named)
    if isinstance(ty, TupleType):
        return TupleType(tuple(_elide_output(t, lifetime) for t in ty.elements))
    return ty


class TypeChecker:
    """Checks a :class:`repro.lang.ast.Program` and annotates its bodies in place.

    Declarations are left as parsed: a signature's resolved and elaborated
    types live in its :class:`~repro.lang.ast.FnSig`, and a body's check
    reads its parameters' types through the struct registry, as lowering
    does.  The check writes only into the bodies it checks.

    With ``previous``, the check of an earlier program whose declarations
    this one shares, a declaration that is the very object ``previous``
    checked keeps its elaborated signature and its rendering in the
    environment key while the struct part of the key is unchanged, and
    keeps its checked form when the whole key is unchanged: each was
    computed from equal inputs.  So a rebuild elaborates only the
    declarations it parsed again, and checks a body ``previous`` checked
    only in a changed environment.

    The check goes on past an error, collecting each as a
    :class:`~repro.errors.Diagnostic` in ``diagnostics``; a failed check
    raises one :class:`TypeCheckError` reporting all of them, at the first
    one's span, with the environment key it checked bodies in as
    ``env_key``.
    """

    def __init__(self, program: ast.Program, previous: Optional["CheckedProgram"] = None):
        self.program = program
        self.previous = previous
        self.registry = StructRegistry()
        self.signatures: Dict[str, ast.FnSig] = {}
        self.fn_crates: Dict[str, str] = {}
        self.diagnostics: List[Diagnostic] = []

    # -- public API ----------------------------------------------------------

    def check(self) -> CheckedProgram:
        """Check the whole program, raising :class:`TypeCheckError` on errors."""
        self._collect_structs()
        structs = self._structs_key()
        previous = self.previous
        served: Dict[str, CheckedFunction] = {}
        rendered: Dict[str, Tuple[str, str]] = {}
        if previous is not None and previous.env_key[0] == structs:
            for previous_crate in previous.crates.values():
                served.update(previous_crate.functions)
            rendered = previous.env_key[1]
        env_key = (structs, self._collect_signatures(served, rendered))
        if previous is None or previous.env_key != env_key:
            served = {}
        reused: List[str] = []
        crates: Dict[str, CheckedCrate] = {}
        for crate in self.program.crates:
            checked = CheckedCrate(crate=crate)
            for fn in crate.functions():
                kept = served.get(fn.name)
                if kept is not None and kept.decl is fn:
                    checked.functions[fn.name] = kept
                    reused.append(fn.name)
                else:
                    checked.functions[fn.name] = self._check_function(fn)
            crates[crate.name] = checked
        if self.diagnostics:
            error = TypeCheckError.of(self.diagnostics)
            error.env_key = env_key
            raise error
        return CheckedProgram(
            program=self.program,
            registry=self.registry,
            signatures=self.signatures,
            crates=crates,
            fn_crates=self.fn_crates,
            env_key=env_key,
            reused=frozenset(reused),
        )

    def _error(self, message: str, span: Span) -> None:
        self.diagnostics.append(Diagnostic(message, span))

    # -- item collection -------------------------------------------------------

    def _collect_structs(self) -> None:
        # First pass: register names so fields can refer to other structs.
        for struct in self.program.all_structs():
            self.registry.define(StructType(name=struct.name, fields=(), opaque=struct.opaque))
        # Second pass: resolve field types.
        for struct in self.program.all_structs():
            fields: List[Tuple[str, Type]] = []
            for fld in struct.fields:
                fields.append((fld.name, self._resolve_type(fld.ty, fld.span)))
            self.registry.define(
                StructType(name=struct.name, fields=tuple(fields), opaque=struct.opaque)
            )
        # Third pass: now that every struct is complete, re-resolve fields so
        # nested struct types carry their full field lists.
        for struct in self.program.all_structs():
            current = self.registry.lookup(struct.name)
            if current is None:
                continue
            fields = [(name, self.registry.resolve(ty)) for name, ty in current.fields]
            self.registry.define(
                StructType(name=struct.name, fields=tuple(fields), opaque=struct.opaque)
            )

    def _structs_key(self) -> StructsKey:
        """The struct part of the environment key."""
        return tuple(
            (struct.name, struct.opaque, tuple((name, ty.pretty()) for name, ty in struct.fields))
            for struct in self.registry.structs.values()
        )

    def _collect_signatures(
        self, served: Dict[str, CheckedFunction], rendered: Dict[str, Tuple[str, str]]
    ) -> Dict[str, Tuple[str, str]]:
        """Each function's signature, and the signature part of the
        environment key: by name, the function's crate and its rendered
        signature.  A declaration that ``served`` holds as the very object
        keeps its signature and the rendering in ``rendered``."""
        entries: Dict[str, Tuple[str, str]] = {}
        for crate in self.program.crates:
            for fn in crate.functions():
                if fn.name in self.signatures:
                    self._error(
                        f"duplicate function definition {fn.name!r}", fn.span
                    )
                    continue
                kept = served.get(fn.name)
                if kept is not None and kept.decl is fn:
                    signature = kept.signature
                    text = rendered[fn.name][1]
                else:
                    signature = self._elaborate_signature(fn)
                    text = signature.pretty()
                self.signatures[fn.name] = signature
                self.fn_crates[fn.name] = crate.name
                entries[fn.name] = (crate.name, text)
        return entries

    def _elaborate_signature(self, fn: ast.FnDecl) -> ast.FnSig:
        """Apply lifetime elision so every reference in the signature is named.

        Elision mirrors Rust's rules in spirit: un-annotated input references
        each get a fresh lifetime; un-annotated output references share the
        single input lifetime when there is exactly one, and otherwise get a
        distinct name that the signature summary treats as tied to *all*
        inputs (the conservative choice required for soundness).
        """
        declared = [self._resolve_type(p.ty, p.span) for p in fn.params]
        declared_ret = self._resolve_type(fn.ret_type, fn.span)
        lifetime_params = list(fn.lifetime_params)
        # Fresh names are numbered per signature, so an edit to one signature
        # renames no other's, and skip every name the signature mentions.
        taken = set(lifetime_params)
        for ty in (*declared, declared_ret):
            taken.update(ty.lifetimes())
        counter = itertools.count(1)

        def fresh(prefix: str) -> str:
            name = f"{prefix}{next(counter)}"
            while name in taken:
                name = f"{prefix}{next(counter)}"
            lifetime_params.append(name)
            return name

        param_types = tuple(_name_refs(ty, fresh, "in") for ty in declared)
        input_lifetimes: List[str] = []
        for ty in param_types:
            input_lifetimes.extend(ty.lifetimes())

        if len(set(input_lifetimes)) == 1:
            ret_type = _elide_output(declared_ret, input_lifetimes[0])
        else:
            ret_type = _name_refs(declared_ret, fresh, "out")

        return ast.FnSig(
            name=fn.name,
            param_names=tuple(p.name for p in fn.params),
            param_types=param_types,
            ret_type=ret_type,
            lifetime_params=tuple(dict.fromkeys(lifetime_params)),
        )

    def _resolve_type(self, ty: Type, span: Span) -> Type:
        resolved = self.registry.resolve(ty)
        if isinstance(resolved, StructType) and self.registry.lookup(resolved.name) is None:
            self._error(f"unknown type {resolved.name!r}", span)
        return resolved

    # -- function bodies ---------------------------------------------------------

    def _check_function(self, fn: ast.FnDecl) -> CheckedFunction:
        """Check one body.  The declared return type is read as parsed: it
        is only compared, and struct types compare by name."""
        signature = self.signatures[fn.name]
        checked = CheckedFunction(decl=fn, signature=signature)
        if fn.body is None:
            return checked

        scope = _Scope()
        for param in fn.params:
            # Parameters are immutable bindings; mutation happens through
            # `&mut` references, matching idiomatic Rust and the corpus.
            ty = self.registry.resolve(param.ty)
            scope.declare(LocalInfo(param.name, ty, mutable=False, span=param.span))
            checked.locals[param.name] = ty

        body_ty = self._check_block(fn.body, scope, fn, checked)
        if not isinstance(fn.ret_type, UnitType) and fn.body.tail is not None:
            if not types_compatible(fn.ret_type, body_ty):
                self._error(
                    f"function {fn.name!r} returns {body_ty.pretty()} "
                    f"but is declared to return {fn.ret_type.pretty()}",
                    fn.span,
                )
        return checked

    def _check_block(
        self, block: ast.Block, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> Type:
        scope.push()
        try:
            for stmt in block.stmts:
                self._check_stmt(stmt, scope, fn, checked)
            if block.tail is not None:
                return self._check_expr(block.tail, scope, fn, checked)
            return UNIT
        finally:
            scope.pop()

    def _check_stmt(
        self, stmt: ast.Stmt, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> None:
        if isinstance(stmt, ast.LetStmt):
            init_ty = (
                self._check_expr(stmt.init, scope, fn, checked) if stmt.init is not None else UNIT
            )
            declared = stmt.declared_ty
            if declared is not None:
                declared = self._resolve_type(declared, stmt.span)
                stmt.declared_ty = declared
                if stmt.init is not None and not types_compatible(declared, init_ty):
                    self._error(
                        f"cannot initialise {stmt.name!r}: expected {declared.pretty()}, "
                        f"found {init_ty.pretty()}",
                        stmt.span,
                    )
                binding_ty = declared
            else:
                binding_ty = init_ty
            scope.declare(LocalInfo(stmt.name, binding_ty, stmt.mutable, stmt.span))
            checked.locals[stmt.name] = binding_ty
        elif isinstance(stmt, ast.AssignStmt):
            value_ty = self._check_expr(stmt.value, scope, fn, checked)
            target_ty = self._check_expr(stmt.target, scope, fn, checked)
            if not stmt.target.is_place():
                self._error("left-hand side of assignment is not a place", stmt.span)
            else:
                self._check_assignable(stmt.target, scope, stmt.span)
            if not types_compatible(target_ty, value_ty):
                self._error(
                    f"mismatched types in assignment: expected {target_ty.pretty()}, "
                    f"found {value_ty.pretty()}",
                    stmt.span,
                )
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope, fn, checked)
        elif isinstance(stmt, ast.WhileStmt):
            cond_ty = self._check_expr(stmt.cond, scope, fn, checked)
            if not isinstance(cond_ty, BoolType):
                self._error(
                    f"while condition must be bool, found {cond_ty.pretty()}", stmt.span
                )
            self._check_block(stmt.body, scope, fn, checked)
        elif isinstance(stmt, ast.ReturnStmt):
            value_ty = (
                self._check_expr(stmt.value, scope, fn, checked)
                if stmt.value is not None
                else UNIT
            )
            if not types_compatible(fn.ret_type, value_ty):
                self._error(
                    f"return type mismatch in {fn.name!r}: expected {fn.ret_type.pretty()}, "
                    f"found {value_ty.pretty()}",
                    stmt.span,
                )
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            pass
        else:  # pragma: no cover - defensive
            self._error(f"unsupported statement {type(stmt).__name__}", stmt.span)

    # -- mutability of assignment targets -----------------------------------------

    def _check_assignable(self, target: ast.Expr, scope: _Scope, span: Span) -> None:
        """Enforce that a place can be written: either its root binding is
        ``mut`` or the write goes through a ``&mut`` dereference."""
        expr = target
        while True:
            if isinstance(expr, ast.Deref):
                base_ty = expr.base.ty
                if isinstance(base_ty, RefType) and base_ty.mutability is not Mutability.MUT:
                    self._error(
                        "cannot assign through a shared reference", span
                    )
                return
            if isinstance(expr, ast.FieldAccess):
                base_ty = expr.base.ty
                if isinstance(base_ty, RefType):
                    # Auto-deref through a reference: the reference must be unique.
                    if base_ty.mutability is not Mutability.MUT:
                        self._error(
                            "cannot assign to a field behind a shared reference", span
                        )
                    return
                expr = expr.base
                continue
            if isinstance(expr, ast.Var):
                info = scope.lookup(expr.name)
                if info is not None and not info.mutable:
                    self._error(
                        f"cannot assign to immutable binding {expr.name!r}", span
                    )
                return
            return

    # -- expressions -------------------------------------------------------------

    def _check_expr(
        self, expr: ast.Expr, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> Type:
        ty = self._infer_expr(expr, scope, fn, checked)
        expr.ty = ty
        return ty

    def _infer_expr(
        self, expr: ast.Expr, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> Type:
        if isinstance(expr, ast.Literal):
            if expr.value is None:
                return UNIT
            if isinstance(expr.value, bool):
                return BOOL
            return U32

        if isinstance(expr, ast.Var):
            info = scope.lookup(expr.name)
            if info is None:
                self._error(f"unknown variable {expr.name!r}", expr.span)
                return UNIT
            return info.ty

        if isinstance(expr, ast.FieldAccess):
            base_ty = self._check_expr(expr.base, scope, fn, checked)
            # Auto-deref through references, as Rust does for field access.
            while isinstance(base_ty, RefType):
                base_ty = base_ty.pointee
            return self._field_type(expr, base_ty)

        if isinstance(expr, ast.Deref):
            base_ty = self._check_expr(expr.base, scope, fn, checked)
            if isinstance(base_ty, RefType):
                return base_ty.pointee
            self._error(
                f"cannot dereference non-reference type {base_ty.pretty()}", expr.span
            )
            return UNIT

        if isinstance(expr, ast.Unary):
            operand_ty = self._check_expr(expr.operand, scope, fn, checked)
            if expr.op is ast.UnOp.NOT:
                if not isinstance(operand_ty, BoolType):
                    self._error(
                        f"'!' expects bool, found {operand_ty.pretty()}", expr.span
                    )
                return BOOL
            if not isinstance(operand_ty, U32Type):
                self._error(
                    f"unary '-' expects u32, found {operand_ty.pretty()}", expr.span
                )
            return U32

        if isinstance(expr, ast.Binary):
            lhs_ty = self._check_expr(expr.lhs, scope, fn, checked)
            rhs_ty = self._check_expr(expr.rhs, scope, fn, checked)
            if expr.op.is_logical():
                for side, ty in (("left", lhs_ty), ("right", rhs_ty)):
                    if not isinstance(ty, BoolType):
                        self._error(
                            f"{side} operand of {expr.op.value!r} must be bool, "
                            f"found {ty.pretty()}",
                            expr.span,
                        )
                return BOOL
            if expr.op.is_comparison():
                if not types_compatible(lhs_ty, rhs_ty) and not types_compatible(rhs_ty, lhs_ty):
                    self._error(
                        f"cannot compare {lhs_ty.pretty()} with {rhs_ty.pretty()}", expr.span
                    )
                return BOOL
            # Arithmetic.
            for side, ty in (("left", lhs_ty), ("right", rhs_ty)):
                if not isinstance(ty, U32Type):
                    self._error(
                        f"{side} operand of {expr.op.value!r} must be u32, found {ty.pretty()}",
                        expr.span,
                    )
            return U32

        if isinstance(expr, ast.Borrow):
            place_ty = self._check_expr(expr.place, scope, fn, checked)
            if not expr.place.is_place():
                self._error("can only borrow places", expr.span)
            mutability = Mutability.MUT if expr.mutable else Mutability.SHARED
            return RefType(place_ty, mutability, None)

        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope, fn, checked)

        if isinstance(expr, ast.TupleExpr):
            element_types = tuple(
                self._check_expr(element, scope, fn, checked) for element in expr.elements
            )
            return TupleType(element_types)

        if isinstance(expr, ast.StructLit):
            return self._check_struct_lit(expr, scope, fn, checked)

        if isinstance(expr, ast.If):
            cond_ty = self._check_expr(expr.cond, scope, fn, checked)
            if not isinstance(cond_ty, BoolType):
                self._error(
                    f"if condition must be bool, found {cond_ty.pretty()}", expr.span
                )
            then_ty = self._check_block(expr.then_block, scope, fn, checked)
            if expr.else_block is None:
                return UNIT
            else_ty = self._check_block(expr.else_block, scope, fn, checked)
            if types_compatible(then_ty, else_ty):
                return then_ty
            if types_compatible(else_ty, then_ty):
                return else_ty
            self._error(
                f"if and else branches have incompatible types: {then_ty.pretty()} "
                f"vs {else_ty.pretty()}",
                expr.span,
            )
            return then_ty

        if isinstance(expr, ast.BlockExpr):
            return self._check_block(expr.block, scope, fn, checked)

        self._error(f"unsupported expression {type(expr).__name__}", expr.span)
        return UNIT

    def _field_type(self, expr: ast.FieldAccess, base_ty: Type) -> Type:
        if isinstance(base_ty, TupleType):
            if not isinstance(expr.fld, int):
                self._error(
                    f"tuple fields are accessed by index, found .{expr.fld}", expr.span
                )
                return UNIT
            field_ty = projection_type(base_ty, expr.fld)
            if field_ty is None:
                self._error(
                    f"tuple of length {len(base_ty.elements)} has no field {expr.fld}", expr.span
                )
                return UNIT
            expr.field_index = expr.fld
            return field_ty
        if isinstance(base_ty, StructType):
            resolved = self.registry.lookup(base_ty.name) or base_ty
            if isinstance(expr.fld, int):
                field_ty = projection_type(resolved, expr.fld)
                if field_ty is None:
                    self._error(
                        f"struct {resolved.name!r} has no field index {expr.fld}", expr.span
                    )
                    return UNIT
                expr.field_index = expr.fld
                return field_ty
            index = resolved.field_index(expr.fld)
            if index is None:
                self._error(
                    f"struct {resolved.name!r} has no field {expr.fld!r}", expr.span
                )
                return UNIT
            expr.field_index = index
            return resolved.fields[index][1]
        self._error(
            f"type {base_ty.pretty()} has no fields", expr.span
        )
        return UNIT

    def _check_call(
        self, expr: ast.Call, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> Type:
        arg_types = [self._check_expr(arg, scope, fn, checked) for arg in expr.args]
        signature = self.signatures.get(expr.func)
        if signature is None:
            self._error(f"call to unknown function {expr.func!r}", expr.span)
            return UNIT
        if len(arg_types) != signature.arity():
            self._error(
                f"{expr.func!r} expects {signature.arity()} arguments, got {len(arg_types)}",
                expr.span,
            )
        for index, (expected, actual) in enumerate(zip(signature.param_types, arg_types)):
            if not types_compatible(expected, actual):
                self._error(
                    f"argument {index} of {expr.func!r}: expected {expected.pretty()}, "
                    f"found {actual.pretty()}",
                    expr.args[index].span if index < len(expr.args) else expr.span,
                )
        return self.registry.resolve(signature.ret_type)

    def _check_struct_lit(
        self, expr: ast.StructLit, scope: _Scope, fn: ast.FnDecl, checked: CheckedFunction
    ) -> Type:
        struct = self.registry.lookup(expr.struct_name)
        if struct is None:
            self._error(f"unknown struct {expr.struct_name!r}", expr.span)
            for _, value in expr.fields:
                self._check_expr(value, scope, fn, checked)
            return UNIT
        provided = {name for name, _ in expr.fields}
        expected = set(struct.field_names())
        for missing in sorted(expected - provided):
            self._error(
                f"missing field {missing!r} in literal of {struct.name!r}", expr.span
            )
        for extra in sorted(provided - expected):
            self._error(
                f"struct {struct.name!r} has no field {extra!r}", expr.span
            )
        for name, value in expr.fields:
            value_ty = self._check_expr(value, scope, fn, checked)
            declared = struct.field_type(name)
            if declared is not None and not types_compatible(declared, value_ty):
                self._error(
                    f"field {name!r} of {struct.name!r}: expected {declared.pretty()}, "
                    f"found {value_ty.pretty()}",
                    value.span,
                )
        return struct


def check_program(
    program: ast.Program, previous: Optional[CheckedProgram] = None
) -> CheckedProgram:
    """Type check ``program`` and return the checked form.

    ``previous`` lends its checked functions to the declarations ``program``
    shares with it (see :class:`TypeChecker`).
    """
    with obs_stage("typecheck") as sp:
        checked = TypeChecker(program, previous).check()
        if sp is not None:
            sp.set(functions=len(checked.signatures))
        return checked
