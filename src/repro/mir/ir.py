"""MIR data types: places, rvalues, statements, terminators, and bodies.

The representation intentionally mirrors rustc's MIR as described in Section
4.1 of the paper and depicted in Figure 1:

* a **local** is a numbered slot (``_0`` is the return place, ``_1..=_n`` are
  the arguments, the rest are temporaries and user variables),
* a **place** is a local plus a projection path of field accesses and
  dereferences,
* **statements** assign rvalues to places,
* **terminators** end basic blocks: gotos, boolean switches, calls (calls are
  terminators exactly as in MIR, because the paper's transfer function for
  calls is tied to the call edge), and returns,
* a **location** is a (block, statement index) pair — these are the
  dependency labels ``ℓ`` the information flow analysis collects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import DUMMY_SPAN, Span
from repro.lang.ast import BinOp, FnSig, UnOp
from repro.lang.types import Mutability, Type


RETURN_LOCAL = 0


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------


class ProjectionKind(Enum):
    """The two projection forms the analysis needs: fields and dereferences."""

    FIELD = "field"
    DEREF = "deref"


class PlaceElem(NamedTuple):
    """One step of a place's projection path."""

    kind: ProjectionKind
    index: int = 0  # field index; unused for derefs

    @staticmethod
    def deref() -> "PlaceElem":
        return PlaceElem(ProjectionKind.DEREF)

    @staticmethod
    def fld(index: int) -> "PlaceElem":
        return PlaceElem(ProjectionKind.FIELD, index)

    def is_deref(self) -> bool:
        return self.kind is ProjectionKind.DEREF

    def pretty(self) -> str:
        return "*" if self.is_deref() else f".{self.index}"


class Place(NamedTuple):
    """A memory location: a local plus a projection path.

    ``Place(2, (Field(1),))`` is written ``_2.1`` and ``Place(3, (Deref,))``
    is written ``(*_3)``.  Places key the dependency context Θ, the
    interning tables and every memo on the analysis hot path, so they are
    plain tuples: hashing and comparing run in C, with no cached hash.  A
    place therefore equals the tuple ``(local, projection)``.
    """

    local: int
    projection: Tuple[PlaceElem, ...] = ()

    @staticmethod
    def from_local(local: int) -> "Place":
        return Place(local, ())

    def project_field(self, index: int) -> "Place":
        return Place(self.local, self.projection + (PlaceElem.fld(index),))

    def project_deref(self) -> "Place":
        return Place(self.local, self.projection + (PlaceElem.deref(),))

    def has_deref(self) -> bool:
        return any(elem.is_deref() for elem in self.projection)

    def is_local(self) -> bool:
        return not self.projection

    def base_local(self) -> "Place":
        return Place(self.local, ())

    def is_prefix_of(self, other: "Place") -> bool:
        """Whether ``self`` is a (non-strict) prefix of ``other``.

        Prefixes ignore the deref/field distinction only in the sense used by
        the conflict relation of Section 2.1: ``x`` is a prefix of ``x.0`` and
        of ``(*x)``.
        """
        if self.local != other.local:
            return False
        if len(self.projection) > len(other.projection):
            return False
        return other.projection[: len(self.projection)] == self.projection

    def conflicts_with(self, other: "Place") -> bool:
        """The conflict relation ``π1 ⊓ π2``: ancestor-or-descendant paths.

        Two places conflict when mutating one may change the value of the
        other — i.e. one's path is a prefix of the other's (Section 2.1).
        Siblings like ``x.0`` and ``x.1`` do not conflict.
        """
        return self.is_prefix_of(other) or other.is_prefix_of(self)

    def pretty(self, body: Optional["Body"] = None) -> str:
        name = f"_{self.local}"
        if body is not None:
            local = body.locals[self.local]
            if local.name:
                name = local.name
        out = name
        for elem in self.projection:
            if elem.is_deref():
                out = f"(*{out})"
            else:
                out = f"{out}.{elem.index}"
        return out

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


# ---------------------------------------------------------------------------
# Operands and rvalues
# ---------------------------------------------------------------------------


class Operand:
    """Base class for operands: uses of places or constants."""

    def place(self) -> Optional[Place]:
        """The place read by this operand, if any."""
        return None

    def pretty(self, body: Optional["Body"] = None) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Copy(Operand):
    """Read a place, copying its value."""

    src: Place

    def place(self) -> Optional[Place]:
        return self.src

    def pretty(self, body: Optional["Body"] = None) -> str:
        return self.src.pretty(body)


@dataclass(frozen=True)
class Move(Operand):
    """Read a place, moving out of it (same dependencies as a copy)."""

    src: Place

    def place(self) -> Optional[Place]:
        return self.src

    def pretty(self, body: Optional["Body"] = None) -> str:
        return f"move {self.src.pretty(body)}"


@dataclass(frozen=True)
class Constant(Operand):
    """A literal constant."""

    value: Union[int, bool, None]
    ty: Optional[Type] = None

    def pretty(self, body: Optional["Body"] = None) -> str:
        if self.value is None:
            return "()"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return str(self.value)


class Rvalue:
    """Base class for right-hand sides of assignments."""

    def operands(self) -> List[Operand]:
        return []

    def pretty(self, body: Optional["Body"] = None) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Use(Rvalue):
    """``place = operand``"""

    operand: Operand

    def operands(self) -> List[Operand]:
        return [self.operand]

    def pretty(self, body: Optional["Body"] = None) -> str:
        return self.operand.pretty(body)


@dataclass(frozen=True)
class Ref(Rvalue):
    """``place = &p`` or ``place = &mut p`` — a borrow of ``referent``."""

    mutability: Mutability
    referent: Place

    def operands(self) -> List[Operand]:
        return []

    def pretty(self, body: Optional["Body"] = None) -> str:
        m = "mut " if self.mutability is Mutability.MUT else ""
        return f"&{m}{self.referent.pretty(body)}"


@dataclass(frozen=True)
class BinaryOp(Rvalue):
    """``place = op(lhs, rhs)``"""

    op: BinOp
    lhs: Operand
    rhs: Operand

    def operands(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def pretty(self, body: Optional["Body"] = None) -> str:
        return f"{self.lhs.pretty(body)} {self.op.value} {self.rhs.pretty(body)}"


@dataclass(frozen=True)
class UnaryOp(Rvalue):
    """``place = op(operand)``"""

    op: UnOp
    operand: Operand

    def operands(self) -> List[Operand]:
        return [self.operand]

    def pretty(self, body: Optional["Body"] = None) -> str:
        return f"{self.op.value}{self.operand.pretty(body)}"


class AggregateKind(Enum):
    """What an aggregate rvalue builds."""

    TUPLE = "tuple"
    STRUCT = "struct"


@dataclass(frozen=True)
class Aggregate(Rvalue):
    """``place = (op0, op1, ...)`` or ``place = Struct { ... }``."""

    kind: AggregateKind
    ops: Tuple[Operand, ...]
    struct_name: Optional[str] = None

    def operands(self) -> List[Operand]:
        return list(self.ops)

    def pretty(self, body: Optional["Body"] = None) -> str:
        inner = ", ".join(op.pretty(body) for op in self.ops)
        if self.kind is AggregateKind.STRUCT and self.struct_name:
            return f"{self.struct_name} {{ {inner} }}"
        return f"({inner})"


# ---------------------------------------------------------------------------
# Statements and terminators
# ---------------------------------------------------------------------------


class StatementKind(Enum):
    ASSIGN = "assign"
    NOP = "nop"


@dataclass
class Statement:
    """A non-terminator MIR instruction."""

    kind: StatementKind
    place: Optional[Place] = None
    rvalue: Optional[Rvalue] = None
    span: Span = DUMMY_SPAN

    @staticmethod
    def assign(place: Place, rvalue: Rvalue, span: Span = DUMMY_SPAN) -> "Statement":
        return Statement(StatementKind.ASSIGN, place, rvalue, span)

    @staticmethod
    def nop(span: Span = DUMMY_SPAN) -> "Statement":
        return Statement(StatementKind.NOP, span=span)

    def pretty(self, body: Optional["Body"] = None) -> str:
        if self.kind is StatementKind.NOP:
            return "nop"
        assert self.place is not None and self.rvalue is not None
        return f"{self.place.pretty(body)} = {self.rvalue.pretty(body)}"


class Terminator:
    """Base class for block terminators.

    Every terminator carries a ``span`` (the nearest enclosing source
    construct) so that analysis results over terminator locations can be
    mapped back to character-precise source ranges, not just whole lines.
    """

    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return []

    def pretty(self, body: Optional["Body"] = None) -> str:
        raise NotImplementedError


@dataclass
class Goto(Terminator):
    target: int = 0
    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return [self.target]

    def pretty(self, body: Optional["Body"] = None) -> str:
        return f"goto -> bb{self.target}"


@dataclass
class SwitchBool(Terminator):
    """A two-way branch on a boolean operand (MIR's ``switchInt`` on bool)."""

    discr: Operand = None  # type: ignore[assignment]
    true_target: int = 0
    false_target: int = 0
    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return [self.true_target, self.false_target]

    def pretty(self, body: Optional["Body"] = None) -> str:
        return (
            f"switch {self.discr.pretty(body)} -> "
            f"[true: bb{self.true_target}, false: bb{self.false_target}]"
        )


@dataclass
class CallTerminator(Terminator):
    """A function call: ``dest = func(args) -> bb_target``."""

    func: str = ""
    args: List[Operand] = field(default_factory=list)
    destination: Place = None  # type: ignore[assignment]
    target: int = 0
    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return [self.target]

    def pretty(self, body: Optional["Body"] = None) -> str:
        args = ", ".join(a.pretty(body) for a in self.args)
        return (
            f"{self.destination.pretty(body)} = {self.func}({args}) -> bb{self.target}"
        )


@dataclass
class Return(Terminator):
    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return []

    def pretty(self, body: Optional["Body"] = None) -> str:
        return "return"


@dataclass
class Unreachable(Terminator):
    span: Span = DUMMY_SPAN

    def successors(self) -> List[int]:
        return []

    def pretty(self, body: Optional["Body"] = None) -> str:
        return "unreachable"


# ---------------------------------------------------------------------------
# Blocks, locals, bodies
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A basic block: straight-line statements ending in a terminator."""

    statements: List[Statement] = field(default_factory=list)
    terminator: Terminator = field(default_factory=Unreachable)

    def num_locations(self) -> int:
        """Statement slots plus one slot for the terminator."""
        return len(self.statements) + 1


@dataclass
class Local:
    """A declared local slot with its type and optional user-facing name."""

    index: int
    ty: Type
    name: Optional[str] = None
    is_arg: bool = False
    mutable: bool = True
    span: Span = DUMMY_SPAN

    def pretty(self) -> str:
        label = self.name if self.name else f"_{self.index}"
        return f"{label}: {self.ty.pretty()}"


class Location(NamedTuple):
    """A point in the CFG: block index plus statement index.

    The statement index ``len(block.statements)`` denotes the terminator.
    Locations are the dependency labels collected by the analysis: they are
    hashed millions of times per fixpoint (as Θ set elements and interning
    keys), so they are plain tuples with no cached hash, and a location
    equals the tuple ``(block, statement)``.  Their ordering (``(block,
    statement)`` lexicographic) is total, which lets the interning tables of
    :mod:`repro.mir.indices` assign indices monotone in location order and
    iterate bitsets deterministically without sorting.
    """

    block: int
    statement: int

    def pretty(self) -> str:
        return f"bb{self.block}[{self.statement}]"

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


@dataclass
class Body:
    """A lowered function body.

    ``locals[0]`` is the return place, ``locals[1..=arg_count]`` are the
    arguments, in declaration order, and the rest are user variables and
    compiler temporaries.

    ``place_exprs`` records, for each place expression of the source body,
    its span and the place lowering resolved it to, with every name looked
    up in the scope of its use; cursor resolution reads this record.

    Nothing changes a body after lowering, and a rebuild keeps a body only
    while its text and position are unchanged, so the record and the span
    table of :meth:`location_spans` live exactly as long as the body; the
    table is built once.  Readers on several threads may share a body: the
    table is built whole and published with one assignment, so a reader
    sees either no table or a complete one.
    """

    fn_name: str
    locals: List[Local]
    arg_count: int
    blocks: List[BasicBlock]
    signature: FnSig
    crate: str = "main"
    span: Span = DUMMY_SPAN
    place_exprs: Tuple[Tuple[Span, Place], ...] = field(
        default=(), compare=False, repr=False
    )
    _location_spans: Optional[Tuple[Tuple[Span, ...], ...]] = field(
        default=None, init=False, compare=False, repr=False
    )

    # -- structure accessors --------------------------------------------------

    def arg_locals(self) -> List[Local]:
        return self.locals[1 : 1 + self.arg_count]

    def arg_places(self) -> List[Place]:
        return [Place.from_local(local.index) for local in self.arg_locals()]

    def user_locals(self) -> List[Local]:
        """Locals with a source-level name (arguments and ``let`` bindings)."""
        return [local for local in self.locals if local.name is not None]

    def local_by_name(self, name: str) -> Optional[Local]:
        for local in self.locals:
            if local.name == name:
                return local
        return None

    def num_instructions(self) -> int:
        """Total number of locations (statements + terminators)."""
        return sum(block.num_locations() for block in self.blocks)

    # -- location helpers --------------------------------------------------------

    def locations(self) -> Iterator[Location]:
        """Iterate every location in the body in (block, statement) order."""
        for block_idx, block in enumerate(self.blocks):
            for stmt_idx in range(block.num_locations()):
                yield Location(block_idx, stmt_idx)

    def statement_at(self, loc: Location) -> Optional[Statement]:
        block = self.blocks[loc.block]
        if loc.statement < len(block.statements):
            return block.statements[loc.statement]
        return None

    def terminator_location(self, block: int) -> Location:
        return Location(block, len(self.blocks[block].statements))

    def location_spans(self) -> Tuple[Tuple[Span, ...], ...]:
        """The span table: for each block, the spans of its statements and
        then of its terminator, so ``location_spans()[b][s]`` is the span of
        the instruction at ``Location(b, s)``.  An instruction with no
        source position has a dummy span."""
        table = self._location_spans
        if table is None:
            table = self._location_spans = self._span_table()
        return table

    def _span_table(self) -> Tuple[Tuple[Span, ...], ...]:
        return tuple(
            tuple([statement.span for statement in block.statements] + [block.terminator.span])
            for block in self.blocks
        )

    def instruction_at(self, loc: Location) -> Union[Statement, Terminator]:
        block = self.blocks[loc.block]
        if loc.statement < len(block.statements):
            return block.statements[loc.statement]
        return block.terminator

    def written_place(self, loc: Location) -> Optional[Place]:
        """The place the instruction at ``loc`` writes: an assignment's place
        or a call's destination; ``None`` for every other instruction."""
        block = self.blocks[loc.block]
        if loc.statement < len(block.statements):
            return block.statements[loc.statement].place
        terminator = block.terminator
        return terminator.destination if isinstance(terminator, CallTerminator) else None

    # -- CFG edges -----------------------------------------------------------------

    def successors(self, block: int) -> List[int]:
        return self.blocks[block].terminator.successors()

    def predecessors(self) -> Dict[int, List[int]]:
        preds: Dict[int, List[int]] = {i: [] for i in range(len(self.blocks))}
        for index, block in enumerate(self.blocks):
            for successor in block.terminator.successors():
                preds[successor].append(index)
        return preds

    def return_blocks(self) -> List[int]:
        return [
            index
            for index, block in enumerate(self.blocks)
            if isinstance(block.terminator, Return)
        ]

    def place_ty(self, place: Place) -> Optional[Type]:
        """Compute the type of a place by walking its projections."""
        from repro.lang.types import RefType, projection_type

        ty: Optional[Type] = self.locals[place.local].ty
        for elem in place.projection:
            if ty is None:
                return None
            if elem.is_deref():
                if isinstance(ty, RefType):
                    ty = ty.pointee
                else:
                    return None
            else:
                ty = projection_type(ty, elem.index)
        return ty
