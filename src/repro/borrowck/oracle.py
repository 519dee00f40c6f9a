"""Alias oracles: the pointer-analysis interface used by the flow analysis.

The information flow transfer functions never consult loan sets directly;
they ask an :class:`AliasOracle` one question, ``resolve(place)``: which
concrete places may this (possibly dereferencing) place denote?

Two implementations are provided, matching the paper's evaluation conditions:

* :class:`PreciseAliasOracle` uses the lifetime-derived loan sets of
  :mod:`repro.borrowck.loans` (the **Modular** and **Whole-program**
  conditions),
* :class:`TypeBlindAliasOracle` ignores lifetimes and assumes any two
  references with the same pointee type may alias (the **Ref-blind**
  ablation of Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.borrowck.loans import LoanAnalysis, _refs_in_type
from repro.lang.ast import FnSig
from repro.obs import stage as obs_stage
from repro.lang.types import RefType, Type
from repro.mir.ir import Body, Place, Ref, Rvalue, StatementKind, Statement


class AliasOracle:
    """Interface for the pointer analysis consumed by the flow analysis."""

    body: Body

    def resolve(self, place: Place) -> FrozenSet[Place]:
        """Concrete places ``place`` may denote (deref projections resolved)."""
        raise NotImplementedError

    def resolve_indices(self, place: Place, domain) -> "tuple":
        """:meth:`resolve` interned into ``domain`` (a ``PlaceDomain``)."""
        return tuple(domain.index(p) for p in self.resolve(place))


@dataclass
class PreciseAliasOracle(AliasOracle):
    """Lifetime/loan-based aliasing (the paper's default)."""

    body: Body
    loans: LoanAnalysis

    def resolve(self, place: Place) -> FrozenSet[Place]:
        return self.loans.resolve(place)

    def resolve_indices(self, place: Place, domain) -> "tuple":
        """Resolution as indices of ``domain``.

        When the loan analysis already interns into the caller's domain (the
        indexed flow engine shares its :class:`~repro.mir.indices.BodyIndex`
        place table), the loan bitset *is* the answer; otherwise fall back
        to resolving objects and interning them.
        """
        if self.loans.domain is domain:
            return self.loans.resolve_indices(place)
        return tuple(domain.index(p) for p in self.resolve(place))


@dataclass
class TypeBlindAliasOracle(AliasOracle):
    """Type-based aliasing: the *Ref-blind* ablation.

    Without lifetimes, a dereference of a reference with pointee type ``T``
    may denote *any* place of type ``T`` that is ever borrowed in the body,
    any reference-typed argument's pointee of type ``T``, and — because we
    cannot rule it out — the symbolic place itself.  This mirrors the paper's
    description: "the analysis ... assumes all references of the same type
    can alias."
    """

    body: Body
    signatures: Dict[str, FnSig] = field(default_factory=dict)
    _candidates_by_type: Dict[str, Set[Place]] = field(default_factory=dict, init=False)
    _initialized: bool = field(default=False, init=False)

    def _type_key(self, ty: Optional[Type]) -> str:
        return ty.pretty() if ty is not None else "<unknown>"

    def _ensure_candidates(self) -> None:
        if self._initialized:
            return
        self._initialized = True

        def record(place: Place) -> None:
            ty = self.body.place_ty(place)
            if ty is None:
                return
            self._candidates_by_type.setdefault(self._type_key(ty), set()).add(place)

        # Places that are ever borrowed anywhere in the body.
        for block in self.body.blocks:
            for stmt in block.statements:
                if stmt.kind is StatementKind.ASSIGN and isinstance(stmt.rvalue, Ref):
                    record(stmt.rvalue.referent)

        # Pointees of reference-typed arguments (abstract caller memory).
        for local in self.body.arg_locals():
            arg_place = Place.from_local(local.index)
            for path, _ref_ty in _refs_in_type(local.ty):
                ref_place = arg_place
                for index in path:
                    ref_place = ref_place.project_field(index)
                record(ref_place.project_deref())

    def resolve(self, place: Place) -> FrozenSet[Place]:
        self._ensure_candidates()
        bases: Set[Place] = {Place.from_local(place.local)}
        for elem in place.projection:
            next_bases: Set[Place] = set()
            for base in bases:
                if elem.is_deref():
                    base_ty = self.body.place_ty(base)
                    pointee = base_ty.pointee if isinstance(base_ty, RefType) else None
                    candidates = self._candidates_by_type.get(self._type_key(pointee), set())
                    next_bases |= candidates
                    next_bases.add(base.project_deref())
                else:
                    next_bases.add(base.project_field(elem.index))
            bases = next_bases
        return frozenset(bases)


def make_oracle(
    body: Body,
    signatures: Dict[str, FnSig],
    ref_blind: bool = False,
    place_domain=None,
) -> AliasOracle:
    """Build the alias oracle matching the chosen analysis condition.

    ``place_domain`` lets the indexed flow engine share its place interning
    table with the loan analysis, so oracle resolutions are produced
    directly in the engine's index space.
    """
    if ref_blind:
        return TypeBlindAliasOracle(body=body, signatures=signatures)
    with obs_stage("borrowck", fn=body.fn_name) as sp:
        loans = LoanAnalysis(body=body, signatures=signatures)
        if place_domain is not None:
            loans.domain = place_domain
        oracle = PreciseAliasOracle(body=body, loans=loans.run())
        if sp is not None:
            sp.set(places=len(loans.domain))
        return oracle
