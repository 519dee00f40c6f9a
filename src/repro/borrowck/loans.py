"""Loan-set computation: which places can a reference point to?

Section 4.2 of the paper: "for all instances of borrow expressions ``&r ω p``
in the MIR program, we initialize ``Γ(r) = {p}``.  Then we propagate loans via
``Γ(r) = ⋃_{r' :> r} Γ(r')`` until Γ reaches a fixpoint."

Rather than materialising region variables, we key loan sets directly by the
reference-typed *places* that hold the references (each such place stands for
the region of the reference stored in it).  Propagation happens along:

* borrow statements (``p = &q`` adds the concrete places ``q`` may denote),
* reference copies/moves (``p = q``),
* aggregate construction/projection (references stored in tuple or struct
  fields), and
* call returns, where the callee's *signature lifetimes* determine which
  argument loans flow into the returned reference — exactly the modular use
  of lifetimes the paper describes for ``Vec::iter``.

References received from the caller (reference-typed arguments) have no
in-body loans; dereferencing them yields the *abstract place* ``(*arg)``,
which stands for caller-owned memory, mirroring how Flowistry reasons about
argument memory symbolically.

The representation is interned: every place is a dense index into a
:class:`~repro.mir.indices.PlaceDomain` (shareable with the indexed flow
engine's :class:`~repro.mir.indices.BodyIndex`, so oracle resolutions land
directly on the analysis' own indices), and Γ is a mapping from place index
to an int bitset of place indices.  The body is walked once to **compile**
the propagation constraints — the type-driven reference-path discovery and
place projection happen per statement, not per fixpoint pass — and the
fixpoint then iterates the compiled constraint list with bitwise unions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.borrowck.signatures import SignatureSummary, summarize_signature
from repro.dataflow.bitset import iter_bits
from repro.lang.ast import FnSig
from repro.lang.types import Mutability, RefType, StructType, TupleType, Type
from repro.mir.indices import PlaceDomain
from repro.mir.ir import (
    Aggregate,
    Body,
    CallTerminator,
    Place,
    Ref,
    Rvalue,
    StatementKind,
    Use,
)


LoanMap = Dict[Place, FrozenSet[Place]]

# Propagation passes after which the loan fixpoint stops.
MAX_PASSES = 100


def _place_with_path(base: Place, path: Sequence[int]) -> Place:
    place = base
    for index in path:
        place = place.project_field(index)
    return place


def _refs_in_type(ty: Optional[Type], path: Tuple[int, ...] = ()) -> List[Tuple[Tuple[int, ...], RefType]]:
    """(field path, reference type) pairs for all refs nested in ``ty``."""
    if ty is None:
        return []
    if isinstance(ty, RefType):
        return [(path, ty)]
    if isinstance(ty, TupleType):
        out: List[Tuple[Tuple[int, ...], RefType]] = []
        for index, element in enumerate(ty.elements):
            out.extend(_refs_in_type(element, path + (index,)))
        return out
    if isinstance(ty, StructType) and not ty.opaque:
        out = []
        for index, (_, field_ty) in enumerate(ty.fields):
            out.extend(_refs_in_type(field_ty, path + (index,)))
        return out
    return []


# Compiled constraint tags.
_BORROW = 0  # rows[dest] |= resolve_mask(referent)
_COPY = 1    # rows[dest_ref] |= ⋃ rows[resolve(src_ref)] ∪ rows[src_ref]
_CALL = 2    # rows[dest_ref…] |= ⋃ resolve_mask(tied argument pointees)


@dataclass
class LoanAnalysis:
    """Loan sets for one MIR body (the precise, lifetime-aware version)."""

    body: Body
    signatures: Dict[str, FnSig] = field(default_factory=dict)
    # Shareable interning table; the flow engine passes its own so loan
    # resolutions are already in the analysis' index space.
    domain: PlaceDomain = field(default_factory=PlaceDomain)
    _rows: Dict[int, int] = field(default_factory=dict)
    _summaries: Dict[str, SignatureSummary] = field(default_factory=dict)
    _constraints: Optional[List[tuple]] = field(default=None)

    # -- public API --------------------------------------------------------------

    @property
    def loans(self) -> Dict[Place, Set[Place]]:
        """The loan map in object form (tests and debugging; not hot)."""
        place_of = self.domain.place_of
        return {
            place_of(index): {place_of(i) for i in iter_bits(bits)}
            for index, bits in self._rows.items()
        }

    def loan_set(self, place: Place) -> FrozenSet[Place]:
        """The places that the reference stored at ``place`` may point to."""
        index = self.domain.get(place)
        if index is None:
            return frozenset()
        return frozenset(self.domain.places_of(iter_bits(self._rows.get(index, 0))))

    def as_map(self) -> LoanMap:
        place_of = self.domain.place_of
        return {
            place_of(index): frozenset(place_of(i) for i in iter_bits(bits))
            for index, bits in self._rows.items()
        }

    def resolve_mask(self, place: Place) -> int:
        """Index form of :meth:`resolve`: a bitset over the place domain."""
        domain = self.domain
        rows = self._rows
        bases = 1 << domain.base_index(place.local)
        for elem in place.projection:
            next_bases = 0
            if elem.is_deref():
                while bases:
                    lsb = bases & -bases
                    bases ^= lsb
                    base_index = lsb.bit_length() - 1
                    targets = rows.get(base_index, 0)
                    if targets:
                        next_bases |= targets
                    else:
                        next_bases |= 1 << domain.project_deref_index(base_index)
            else:
                field_index = elem.index
                while bases:
                    lsb = bases & -bases
                    bases ^= lsb
                    next_bases |= 1 << domain.project_field_index(
                        lsb.bit_length() - 1, field_index
                    )
            bases = next_bases
        return bases

    def resolve(self, place: Place) -> FrozenSet[Place]:
        """Reduce ``place`` to the concrete places it may denote.

        Walks the projection path; every ``Deref`` step is replaced by the
        loan set of the prefix.  When the prefix has no known loans (it is a
        reference received from the caller or from an opaque callee), the
        deref is kept symbolically, producing an abstract place such as
        ``(*_1)``.
        """
        return frozenset(self.domain.places_of(iter_bits(self.resolve_mask(place))))

    def resolve_indices(self, place: Place) -> Tuple[int, ...]:
        """:meth:`resolve` as domain indices (the flow engine's form)."""
        if not place.projection:
            # The overwhelmingly common case: a bare local denotes itself.
            return (self.domain.base_index(place.local),)
        return tuple(iter_bits(self.resolve_mask(place)))

    def borrowed_places(self) -> FrozenSet[Place]:
        """Every concrete place that appears in some loan set."""
        union = 0
        for bits in self._rows.values():
            union |= bits
        return frozenset(self.domain.places_of(iter_bits(union)))

    # -- construction --------------------------------------------------------------

    def run(self) -> "LoanAnalysis":
        """Iterate the compiled loan constraints to a fixpoint."""
        constraints = self._compile()
        for _ in range(MAX_PASSES):
            if not self._one_pass(constraints):
                break
        return self

    def _summary(self, fn_name: str) -> Optional[SignatureSummary]:
        if fn_name in self._summaries:
            return self._summaries[fn_name]
        sig = self.signatures.get(fn_name)
        if sig is None:
            return None
        summary = summarize_signature(sig)
        self._summaries[fn_name] = summary
        return summary

    # -- constraint compilation ----------------------------------------------------

    def _compile(self) -> List[tuple]:
        """Walk the body once, emitting index-level propagation constraints.

        Everything type-directed (which nested paths of a copied value are
        references, which call arguments are lifetime-tied to the return)
        and every place projection is resolved here; the fixpoint itself
        only evaluates the constraint list with bit arithmetic.
        """
        if self._constraints is not None:
            return self._constraints
        constraints: List[tuple] = []
        index = self.domain.index
        for block in self.body.blocks:
            for stmt in block.statements:
                if stmt.kind is not StatementKind.ASSIGN:
                    continue
                assert stmt.place is not None and stmt.rvalue is not None
                self._compile_assign(constraints, stmt.place, stmt.rvalue, index)
            terminator = block.terminator
            if isinstance(terminator, CallTerminator):
                self._compile_call(constraints, terminator, index)
        self._constraints = constraints
        return constraints

    def _compile_assign(
        self, constraints: List[tuple], place: Place, rvalue: Rvalue, index
    ) -> None:
        if isinstance(rvalue, Ref):
            constraints.append((_BORROW, index(place), rvalue.referent))
        elif isinstance(rvalue, Use):
            src = rvalue.operand.place()
            if src is not None:
                self._compile_ref_copy(constraints, place, src, index)
        elif isinstance(rvalue, Aggregate):
            for field_index, operand in enumerate(rvalue.ops):
                src = operand.place()
                if src is None:
                    continue
                self._compile_ref_copy(
                    constraints, place.project_field(field_index), src, index
                )
        # BinaryOp/UnaryOp never produce references.

    def _compile_ref_copy(
        self, constraints: List[tuple], dest: Place, src: Place, index
    ) -> None:
        """One constraint per reference nested in the copied value."""
        ty = self.body.place_ty(dest)
        for path, _ref_ty in _refs_in_type(ty):
            dest_ref = _place_with_path(dest, path)
            src_ref = _place_with_path(src, path)
            constraints.append((_COPY, index(dest_ref), index(src_ref), src_ref))

    def _compile_call(self, constraints: List[tuple], call: CallTerminator, index) -> None:
        summary = self._summary(call.func)
        if summary is None:
            return
        dest_refs = _refs_in_type(self.body.place_ty(call.destination))
        if not dest_refs:
            return
        # The returned reference(s) may point to anything reachable through
        # the lifetime-tied arguments' references.
        pointees: List[Place] = []
        for param_index in summary.params_tied_to_return:
            if param_index >= len(call.args):
                continue
            arg_place = call.args[param_index].place()
            if arg_place is None:
                continue
            for ref_info in summary.all_refs_of_param(param_index):
                ref_place = _place_with_path(arg_place, ref_info.path)
                pointees.append(ref_place.project_deref())
        if not pointees:
            return
        dest_indices = tuple(
            index(_place_with_path(call.destination, path)) for path, _ref_ty in dest_refs
        )
        constraints.append((_CALL, dest_indices, tuple(pointees)))

    # -- fixpoint -------------------------------------------------------------------

    def _or_row(self, index: int, bits: int) -> bool:
        before = self._rows.get(index)
        if before is None:
            self._rows[index] = bits
            return True
        after = before | bits
        if after != before:
            self._rows[index] = after
            return True
        return False

    def _one_pass(self, constraints: List[tuple]) -> bool:
        changed = False
        rows = self._rows
        for constraint in constraints:
            tag = constraint[0]
            if tag is _BORROW:
                _tag, dest, referent = constraint
                changed |= self._or_row(dest, self.resolve_mask(referent))
            elif tag is _COPY:
                _tag, dest_ref, src_ref_index, src_ref = constraint
                targets = rows.get(src_ref_index, 0)
                resolved = self.resolve_mask(src_ref)
                while resolved:
                    lsb = resolved & -resolved
                    resolved ^= lsb
                    targets |= rows.get(lsb.bit_length() - 1, 0)
                if targets:
                    changed |= self._or_row(dest_ref, targets)
            else:  # _CALL
                _tag, dest_indices, pointees = constraint
                targets = 0
                for pointee in pointees:
                    targets |= self.resolve_mask(pointee)
                if targets:
                    for dest in dest_indices:
                        changed |= self._or_row(dest, targets)
        return changed


def compute_loans(
    body: Body, signatures: Dict[str, FnSig], domain: Optional[PlaceDomain] = None
) -> LoanAnalysis:
    """Run the loan analysis for ``body`` to fixpoint and return it."""
    analysis = LoanAnalysis(body=body, signatures=signatures)
    if domain is not None:
        analysis.domain = domain
    return analysis.run()
