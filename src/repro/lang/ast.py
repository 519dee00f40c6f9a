"""Abstract syntax tree for MiniRust.

The AST is deliberately close to the expression language of Oxide (the formal
model the paper uses): constants, places with field projections and
dereferences, let bindings, assignments, borrows, conditionals, loops, and
first-order function calls.  Each node carries a :class:`~repro.errors.Span`
and receives a unique *node id* so that the AST-level information-flow
judgment (:mod:`repro.core.oxide`) can use node ids as the location labels
``ℓ`` from Section 2 of the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import DUMMY_SPAN, Span
from repro.lang.types import Type


_node_counter = itertools.count(1)


def _next_node_id() -> int:
    return next(_node_counter)


class ExprKind(Enum):
    """Discriminant for expression nodes, useful for generic visitors."""

    LITERAL = "literal"
    VAR = "var"
    FIELD = "field"
    DEREF = "deref"
    UNARY = "unary"
    BINARY = "binary"
    BORROW = "borrow"
    CALL = "call"
    TUPLE = "tuple"
    STRUCT = "struct"
    IF = "if"
    BLOCK = "block"


class StmtKind(Enum):
    """Discriminant for statement nodes."""

    LET = "let"
    ASSIGN = "assign"
    EXPR = "expr"
    WHILE = "while"
    RETURN = "return"
    BREAK = "break"
    CONTINUE = "continue"


class BinOp(Enum):
    """Binary operators available in MiniRust."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    REM = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"

    def is_comparison(self) -> bool:
        return self in (BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE)

    def is_logical(self) -> bool:
        return self in (BinOp.AND, BinOp.OR)


class UnOp(Enum):
    """Unary operators available in MiniRust."""

    NOT = "!"
    NEG = "-"


@dataclass
class Node:
    """Common base for AST nodes: a span plus a unique id (the label ``ℓ``)."""

    span: Span = field(default=DUMMY_SPAN, kw_only=True)
    node_id: int = field(default_factory=_next_node_id, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


# The kinds of place (l-value) expressions, looked up once: an enum
# member's class attribute lookup costs more than the membership test.
_PLACE_KINDS = (ExprKind.VAR, ExprKind.FIELD, ExprKind.DEREF)


@dataclass
class Expr(Node):
    """Base class for expressions.  ``ty`` is filled in by the type checker."""

    kind: ExprKind = field(default=ExprKind.LITERAL, kw_only=True)
    ty: Optional[Type] = field(default=None, kw_only=True)

    def is_place(self) -> bool:
        """Whether this expression denotes a place (l-value)."""
        return self.kind in _PLACE_KINDS

    def children(self) -> List["Expr"]:
        """Direct sub-expressions, for generic traversals."""
        return []


@dataclass
class Literal(Expr):
    """A constant: an integer, a boolean, or unit (``value is None``)."""

    value: Union[int, bool, None] = None

    def __post_init__(self) -> None:
        self.kind = ExprKind.LITERAL


@dataclass
class Var(Expr):
    """A reference to a local variable or parameter by name."""

    name: str = ""

    def __post_init__(self) -> None:
        self.kind = ExprKind.VAR


@dataclass
class FieldAccess(Expr):
    """Projection out of a tuple (``e.0``) or struct (``e.name``).

    ``field`` keeps the surface form (an int for tuples, a string for
    structs); ``field_index`` is resolved during type checking.
    """

    base: Expr = None  # type: ignore[assignment]
    fld: Union[int, str] = 0
    field_index: Optional[int] = None

    def __post_init__(self) -> None:
        self.kind = ExprKind.FIELD

    def children(self) -> List[Expr]:
        return [self.base]


@dataclass
class Deref(Expr):
    """A dereference ``*e``."""

    base: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = ExprKind.DEREF

    def children(self) -> List[Expr]:
        return [self.base]


@dataclass
class Unary(Expr):
    """A unary operation ``!e`` or ``-e``."""

    op: UnOp = UnOp.NOT
    operand: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = ExprKind.UNARY

    def children(self) -> List[Expr]:
        return [self.operand]


@dataclass
class Binary(Expr):
    """A binary operation ``e1 op e2``."""

    op: BinOp = BinOp.ADD
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = ExprKind.BINARY

    def children(self) -> List[Expr]:
        return [self.lhs, self.rhs]


@dataclass
class Borrow(Expr):
    """A borrow expression ``&p`` or ``&mut p`` (Oxide's ``&r ω p``)."""

    mutable: bool = False
    place: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = ExprKind.BORROW

    def children(self) -> List[Expr]:
        return [self.place]


@dataclass
class Call(Expr):
    """A call to a named function: ``f(e1, ..., en)``."""

    func: str = ""
    args: List[Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kind = ExprKind.CALL

    def children(self) -> List[Expr]:
        return list(self.args)


@dataclass
class TupleExpr(Expr):
    """A tuple constructor ``(e1, ..., en)``."""

    elements: List[Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kind = ExprKind.TUPLE

    def children(self) -> List[Expr]:
        return list(self.elements)


@dataclass
class StructLit(Expr):
    """A struct literal ``Name { field: expr, ... }``."""

    struct_name: str = ""
    fields: List[Tuple[str, Expr]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kind = ExprKind.STRUCT

    def children(self) -> List[Expr]:
        return [expr for _, expr in self.fields]


@dataclass
class If(Expr):
    """A conditional expression ``if cond { ... } else { ... }``.

    The else block may be absent, in which case the expression has unit type.
    """

    cond: Expr = None  # type: ignore[assignment]
    then_block: "Block" = None  # type: ignore[assignment]
    else_block: Optional["Block"] = None

    def __post_init__(self) -> None:
        self.kind = ExprKind.IF

    def children(self) -> List[Expr]:
        return [self.cond]


@dataclass
class BlockExpr(Expr):
    """A block used in expression position."""

    block: "Block" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = ExprKind.BLOCK


# ---------------------------------------------------------------------------
# Statements and blocks
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""

    kind: StmtKind = field(default=StmtKind.EXPR, kw_only=True)


@dataclass
class LetStmt(Stmt):
    """``let [mut] name [: ty] = init;``

    ``name_span`` pins the bound variable's identifier token, while ``span``
    covers the whole statement — cursor queries resolve against the former.
    """

    name: str = ""
    mutable: bool = False
    declared_ty: Optional[Type] = None
    init: Optional[Expr] = None
    name_span: Span = field(default=DUMMY_SPAN, kw_only=True)

    def __post_init__(self) -> None:
        self.kind = StmtKind.LET


@dataclass
class AssignStmt(Stmt):
    """``place = value;`` where ``place`` may involve fields and derefs."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = StmtKind.ASSIGN


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its effects: ``expr;``"""

    expr: Expr = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = StmtKind.EXPR


@dataclass
class WhileStmt(Stmt):
    """``while cond { body }``"""

    cond: Expr = None  # type: ignore[assignment]
    body: "Block" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.kind = StmtKind.WHILE


@dataclass
class ReturnStmt(Stmt):
    """``return;`` or ``return expr;``"""

    value: Optional[Expr] = None

    def __post_init__(self) -> None:
        self.kind = StmtKind.RETURN


@dataclass
class BreakStmt(Stmt):
    """``break;`` (exits the innermost loop)."""

    def __post_init__(self) -> None:
        self.kind = StmtKind.BREAK


@dataclass
class ContinueStmt(Stmt):
    """``continue;`` (jumps to the innermost loop header)."""

    def __post_init__(self) -> None:
        self.kind = StmtKind.CONTINUE


@dataclass
class Block(Node):
    """A sequence of statements with an optional tail expression."""

    stmts: List[Stmt] = field(default_factory=list)
    tail: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Items, crates, programs
# ---------------------------------------------------------------------------


@dataclass
class FieldDef(Node):
    """A struct field declaration."""

    name: str = ""
    ty: Type = None  # type: ignore[assignment]


@dataclass
class StructDef(Node):
    """A struct definition, possibly opaque (``struct Foo;``)."""

    name: str = ""
    fields: List[FieldDef] = field(default_factory=list)
    opaque: bool = False


@dataclass
class Param(Node):
    """A function parameter: name plus declared type."""

    name: str = ""
    ty: Type = None  # type: ignore[assignment]


@dataclass
class FnSig:
    """A function signature, the only information the modular analysis uses.

    ``lifetime_params`` lists declared lifetime names (e.g. ``'a``); elided
    lifetimes are assigned fresh names during type checking so every reference
    in ``param_types``/``ret_type`` mentions a concrete lifetime name.
    """

    name: str
    param_names: Tuple[str, ...]
    param_types: Tuple[Type, ...]
    ret_type: Type
    lifetime_params: Tuple[str, ...] = ()

    def arity(self) -> int:
        return len(self.param_types)

    def pretty(self) -> str:
        params = ", ".join(
            f"{name}: {ty.pretty()}" for name, ty in zip(self.param_names, self.param_types)
        )
        lifetimes = ""
        if self.lifetime_params:
            lifetimes = "<" + ", ".join(f"'{p}" for p in self.lifetime_params) + ">"
        return f"fn {self.name}{lifetimes}({params}) -> {self.ret_type.pretty()}"


@dataclass
class FnDecl(Node):
    """A function declaration.

    ``body is None`` marks an ``extern fn``: a signature-only declaration that
    models a pre-compiled dependency.  These are exactly the calls for which
    the paper's *modular* approximation is the only available option.
    """

    name: str = ""
    lifetime_params: List[str] = field(default_factory=list)
    params: List[Param] = field(default_factory=list)
    ret_type: Type = None  # type: ignore[assignment]
    body: Optional[Block] = None
    is_extern: bool = False
    crate: str = ""

    @property
    def has_body(self) -> bool:
        return self.body is not None


Item = Union[FnDecl, StructDef]


@dataclass
class Crate(Node):
    """A named collection of items — the unit of analysis in the evaluation.

    ``implicit`` marks the crate that collects the items written outside any
    ``crate`` block (always named ``main``).
    """

    name: str = "main"
    items: List[Item] = field(default_factory=list)
    implicit: bool = False

    def functions(self) -> List[FnDecl]:
        return [item for item in self.items if isinstance(item, FnDecl)]

    def structs(self) -> List[StructDef]:
        return [item for item in self.items if isinstance(item, StructDef)]

    def function(self, name: str) -> Optional[FnDecl]:
        for fn in self.functions():
            if fn.name == name:
                return fn
        return None

    def add(self, item: Item) -> None:
        self.items.append(item)


# A top-level entry of a source, an item or a ``crate`` block, with the
# lines of its first and last token: ``(first line, last line, entry)``.
Entry = Tuple[int, int, Union[Item, Crate]]


@dataclass
class Program(Node):
    """A whole program: one *local* crate plus any number of dependency crates.

    This mirrors the paper's evaluation setup (Section 5): the whole-program
    analysis may recurse into functions of the local crate only; dependency
    crates expose signatures (and opaque struct types) but their bodies are
    out of reach, exactly like pre-compiled Rust dependencies.
    """

    crates: List[Crate] = field(default_factory=list)
    local_crate: str = "main"
    # The parser's top-level entries, in source order (empty for a program
    # not built by the parser).
    entries: List[Entry] = field(default_factory=list)

    def crate(self, name: str) -> Optional[Crate]:
        for crate in self.crates:
            if crate.name == name:
                return crate
        return None

    @property
    def local(self) -> Crate:
        found = self.crate(self.local_crate)
        if found is None:
            raise KeyError(f"no local crate named {self.local_crate!r}")
        return found

    def all_functions(self) -> List[FnDecl]:
        out: List[FnDecl] = []
        for crate in self.crates:
            out.extend(crate.functions())
        return out

    def all_structs(self) -> List[StructDef]:
        out: List[StructDef] = []
        for crate in self.crates:
            out.extend(crate.structs())
        return out

    def function(self, name: str) -> Optional[FnDecl]:
        for crate in self.crates:
            fn = crate.function(name)
            if fn is not None:
                return fn
        return None

    def function_crate(self, name: str) -> Optional[str]:
        for crate in self.crates:
            if crate.function(name) is not None:
                return crate.name
        return None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions (preorder), descending into blocks."""
    yield expr
    if isinstance(expr, If):
        yield from walk_expr(expr.cond)
        yield from walk_block(expr.then_block)
        if expr.else_block is not None:
            yield from walk_block(expr.else_block)
    elif isinstance(expr, BlockExpr):
        yield from walk_block(expr.block)
    else:
        for child in expr.children():
            yield from walk_expr(child)


def walk_block(block: Block):
    """Yield every expression appearing in ``block`` (preorder)."""
    for stmt in block.stmts:
        yield from walk_stmt(stmt)
    if block.tail is not None:
        yield from walk_expr(block.tail)


def walk_stmt(stmt: Stmt):
    """Yield every expression appearing in ``stmt`` (preorder)."""
    if isinstance(stmt, LetStmt) and stmt.init is not None:
        yield from walk_expr(stmt.init)
    elif isinstance(stmt, AssignStmt):
        yield from walk_expr(stmt.target)
        yield from walk_expr(stmt.value)
    elif isinstance(stmt, ExprStmt):
        yield from walk_expr(stmt.expr)
    elif isinstance(stmt, WhileStmt):
        yield from walk_expr(stmt.cond)
        yield from walk_block(stmt.body)
    elif isinstance(stmt, ReturnStmt) and stmt.value is not None:
        yield from walk_expr(stmt.value)


def called_functions(fn: FnDecl) -> List[str]:
    """Names of all functions syntactically called inside ``fn``'s body."""
    if fn.body is None:
        return []
    names: List[str] = []
    for expr in walk_block(fn.body):
        if isinstance(expr, Call):
            names.append(expr.func)
    return names
