"""The dependency context Θ: places mapped to sets of locations.

Section 2 of the paper introduces Θ as a map from memory places ``p`` to
dependency sets ``κ`` (sets of expression labels ``ℓ``); Section 4.1 carries
the same structure over to MIR, where the labels become CFG locations.  The
context forms a join-semilattice under key-wise union — this module provides
the lattice adapters the dataflow engine runs over, whose in-place join
reports whether its target grew, along with the read and (strong/weak) write
operations over conflicts that the transfer function needs.

Two representations share the same semantics:

* :class:`DependencyContext` — the object domain,
  ``Dict[Place, FrozenSet[Location]]``, behind
  ``AnalysisConfig(engine="object")``: the test referee the differential
  suite and the engine-equivalence oracle check the production engine
  against;
* :class:`IndexedDependencyContext` — the production domain: places and
  locations interned to dense ints (:class:`~repro.mir.indices.BodyIndex`)
  and Θ stored as an :class:`~repro.dataflow.bitset.IndexMatrix` of
  int-bitset rows, making the join (the hottest operation of the whole
  system) a key-wise bitwise-or instead of a cascade of frozenset
  allocations.

Both expose the identical Place/Location-object API at the boundary, so
every consumer of analysis results is representation-agnostic; the indexed
transfer function additionally uses the ``*_bits`` index-level operations to
stay allocation-free inside the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dataflow.bitset import IndexMatrix
from repro.mir.indices import ARG_BLOCK as _INDICES_ARG_BLOCK, BodyIndex
from repro.mir.ir import Location, Place


# Synthetic block index used to tag "argument i" pseudo-locations when
# computing whole-program call summaries: Location(ARG_BLOCK, i) means "the
# value of the i-th parameter at function entry".
ARG_BLOCK = -2

# mir.indices pre-interns the same synthetic tags without importing core.
assert ARG_BLOCK == _INDICES_ARG_BLOCK

EMPTY_DEPS: FrozenSet[Location] = frozenset()


def arg_location(index: int) -> Location:
    """The synthetic location tagging parameter ``index`` at entry."""
    return Location(ARG_BLOCK, index)


def is_arg_location(location: Location) -> bool:
    return location.block == ARG_BLOCK


@dataclass
class DependencyContext:
    """A single Θ: mapping from places to dependency sets.

    The mapping is sparse — places never written or seeded simply have the
    empty dependency set.  Values are immutable frozensets so contexts can be
    copied cheaply (shallow dict copy).
    """

    deps: Dict[Place, FrozenSet[Location]] = field(default_factory=dict)

    # -- basic access ---------------------------------------------------------

    def get(self, place: Place) -> FrozenSet[Location]:
        return self.deps.get(place, EMPTY_DEPS)

    def set(self, place: Place, value: Iterable[Location]) -> None:
        self.deps[place] = frozenset(value)

    def add(self, place: Place, value: Iterable[Location]) -> None:
        self.deps[place] = self.get(place) | frozenset(value)

    def places(self) -> List[Place]:
        return list(self.deps.keys())

    def items(self) -> Iterator[Tuple[Place, FrozenSet[Location]]]:
        return iter(self.deps.items())

    def __contains__(self, place: Place) -> bool:
        return place in self.deps

    def __len__(self) -> int:
        return len(self.deps)

    # -- reads over conflicts ----------------------------------------------------

    def read_conflicts(self, target: Place) -> FrozenSet[Location]:
        """Dependencies of reading ``target`` (T-Move / T-Copy).

        Reading a place reads all of its sub-places, so the dependencies of
        every tracked *descendant* (including the place itself) are included.
        When the place itself is not tracked, the nearest tracked *ancestor*
        describes the region it lives in and is included as a conservative
        fallback.  Tracked ancestors are deliberately **not** consulted when
        the place has its own entry — that is what makes the analysis
        field-sensitive: after ``t.1 = 3``, reading ``t.0`` only sees
        ``t.0``'s own dependencies even though ``Θ(t)`` grew (Section 2.1).
        """
        out: Set[Location] = set()
        for place, deps in self.deps.items():
            if target.is_prefix_of(place):
                out |= deps
        if target not in self.deps:
            nearest: Optional[Place] = None
            for place in self.deps:
                if place.is_prefix_of(target) and place != target:
                    if nearest is None or len(place.projection) > len(nearest.projection):
                        nearest = place
            if nearest is not None:
                out |= self.deps[nearest]
        return frozenset(out)

    def read_many(self, targets: Iterable[Place]) -> FrozenSet[Location]:
        out: Set[Location] = set()
        for target in targets:
            out |= self.read_conflicts(target)
        return frozenset(out)

    # -- writes over conflicts -----------------------------------------------------

    def write_weak(self, target: Place, new_deps: Iterable[Location]) -> None:
        """``update-conflicts`` from Section 2.1: add ``new_deps`` to every
        tracked place conflicting with ``target`` (and to ``target`` itself)."""
        additions = frozenset(new_deps)
        for place in list(self.deps.keys()):
            if place.conflicts_with(target):
                self.deps[place] = self.deps[place] | additions
        self.add(target, additions)

    def write_strong(self, target: Place, new_deps: Iterable[Location]) -> None:
        """A strong update: the target (and the sub-places it contains) now
        depend exactly on ``new_deps``; ancestors accumulate them weakly.

        Flowistry performs strong updates when the mutated place is
        unambiguous; the paper's formal rule (T-Assign) is purely additive,
        which is also available by disabling ``strong_updates`` in the
        configuration.
        """
        replacement = frozenset(new_deps)
        for place in list(self.deps.keys()):
            if place == target:
                continue
            if target.is_prefix_of(place):
                # Descendants are overwritten along with the target.
                self.deps[place] = replacement
            elif place.is_prefix_of(target):
                # Ancestors changed partially: accumulate.
                self.deps[place] = self.deps[place] | replacement
        self.deps[target] = replacement

    # -- structural operations --------------------------------------------------------

    def copy(self) -> "DependencyContext":
        return DependencyContext(dict(self.deps))

    def join_into(self, other: "DependencyContext") -> bool:
        """Key-wise in-place union, ``Θ1 ∨ Θ2`` from Section 4.1; True when
        self grew (the dirty bit)."""
        deps = self.deps
        changed = False
        for place, other_deps in other.deps.items():
            existing = deps.get(place)
            if existing is None:
                deps[place] = other_deps
                changed = True
            elif not other_deps <= existing:
                deps[place] = existing | other_deps
                changed = True
        return changed


class ThetaLattice:
    """Adapter exposing :class:`DependencyContext` as a join-semilattice."""

    def bottom(self) -> DependencyContext:
        return DependencyContext()

    def join_into(self, target: DependencyContext, source: DependencyContext) -> bool:
        return target.join_into(source)

    def copy(self, state: DependencyContext) -> DependencyContext:
        return state.copy()


# ---------------------------------------------------------------------------
# The indexed (bitset) representation
# ---------------------------------------------------------------------------


class IndexedDependencyContext:
    """Θ as an :class:`IndexMatrix`: place-index rows of location bitsets.

    A thin view — all sharing happens through the per-body
    :class:`~repro.mir.indices.BodyIndex` ``domain``, which every state of
    one analysis run shares (it is append-only, so late interning by one
    state is visible, and harmless, to all).  The object-level methods
    mirror :class:`DependencyContext` exactly; the ``*_bits`` methods are
    the allocation-free forms the indexed transfer function uses.
    """

    __slots__ = ("domain", "matrix")

    def __init__(self, domain: BodyIndex, matrix: Optional[IndexMatrix] = None):
        self.domain = domain
        self.matrix = matrix if matrix is not None else IndexMatrix()

    # -- index-level access ------------------------------------------------------

    def read_conflicts_bits(self, target: int) -> int:
        """Index form of :meth:`DependencyContext.read_conflicts`."""
        places = self.domain.places
        matrix = self.matrix
        rows = matrix.rows
        overlap = places.descendants_mask(target) & matrix.keys_mask
        if overlap == 1 << target:
            # Common case: the target is tracked and no tracked descendants
            # exist — its own row is the whole answer.
            return rows[target]
        out = 0
        while overlap:
            lsb = overlap & -overlap
            out |= rows[lsb.bit_length() - 1]
            overlap ^= lsb
        target_bit = 1 << target
        if not (matrix.keys_mask & target_bit):
            ancestors = (places.ancestors_mask(target) ^ target_bit) & matrix.keys_mask
            nearest = -1
            nearest_len = -1
            while ancestors:
                lsb = ancestors & -ancestors
                key = lsb.bit_length() - 1
                proj_len = places.projection_len(key)
                if proj_len > nearest_len:
                    nearest, nearest_len = key, proj_len
                ancestors ^= lsb
            if nearest >= 0:
                out |= rows[nearest]
        return out

    def read_many_bits(self, targets: Iterable[int]) -> int:
        out = 0
        for target in targets:
            out |= self.read_conflicts_bits(target)
        return out

    def write_weak_bits(self, target: int, additions: int) -> None:
        """Index form of :meth:`DependencyContext.write_weak`."""
        matrix = self.matrix
        rows = matrix.rows
        overlap = self.domain.places.conflicts_mask(target) & matrix.keys_mask
        while overlap:
            lsb = overlap & -overlap
            key = lsb.bit_length() - 1
            rows[key] |= additions
            overlap ^= lsb
        target_bit = 1 << target
        if not (matrix.keys_mask & target_bit):
            rows[target] = additions
            matrix.keys_mask |= target_bit

    def write_strong_bits(self, target: int, replacement: int) -> None:
        """Index form of :meth:`DependencyContext.write_strong`."""
        places = self.domain.places
        matrix = self.matrix
        rows = matrix.rows
        target_bit = 1 << target
        overlap = (places.descendants_mask(target) ^ target_bit) & matrix.keys_mask
        while overlap:
            lsb = overlap & -overlap
            rows[lsb.bit_length() - 1] = replacement
            overlap ^= lsb
        overlap = (places.ancestors_mask(target) ^ target_bit) & matrix.keys_mask
        while overlap:
            lsb = overlap & -overlap
            key = lsb.bit_length() - 1
            rows[key] |= replacement
            overlap ^= lsb
        rows[target] = replacement
        matrix.keys_mask |= target_bit

    def join_into(self, other: "IndexedDependencyContext") -> bool:
        """Key-wise in-place union; True when self grew (the dirty bit)."""
        return self.matrix.union_into(other.matrix)

    # -- object-level API (mirrors DependencyContext) ----------------------------

    def get(self, place: Place) -> FrozenSet[Location]:
        index = self.domain.places.get(place)
        if index is None:
            return EMPTY_DEPS
        bits = self.matrix.rows.get(index)
        if bits is None:
            return EMPTY_DEPS
        return self.domain.locations.frozenset_of(bits)

    def set(self, place: Place, value: Iterable[Location]) -> None:
        self.matrix.set_row(
            self.domain.places.index(place), self.domain.locations.mask(value)
        )

    def add(self, place: Place, value: Iterable[Location]) -> None:
        self.matrix.or_row(
            self.domain.places.index(place), self.domain.locations.mask(value)
        )

    def places(self) -> List[Place]:
        place_of = self.domain.places.place_of
        return [place_of(index) for index in self.matrix.rows]

    def items(self) -> Iterator[Tuple[Place, FrozenSet[Location]]]:
        place_of = self.domain.places.place_of
        frozenset_of = self.domain.locations.frozenset_of
        for index, bits in self.matrix.rows.items():
            yield place_of(index), frozenset_of(bits)

    def __contains__(self, place: Place) -> bool:
        index = self.domain.places.get(place)
        return index is not None and index in self.matrix.rows

    def __len__(self) -> int:
        return len(self.matrix.rows)

    def read_conflicts(self, target: Place) -> FrozenSet[Location]:
        return self.domain.locations.frozenset_of(
            self.read_conflicts_bits(self.domain.places.index(target))
        )

    def read_many(self, targets: Iterable[Place]) -> FrozenSet[Location]:
        index = self.domain.places.index
        return self.domain.locations.frozenset_of(
            self.read_many_bits(index(target) for target in targets)
        )

    def write_weak(self, target: Place, new_deps: Iterable[Location]) -> None:
        self.write_weak_bits(
            self.domain.places.index(target), self.domain.locations.mask(new_deps)
        )

    def write_strong(self, target: Place, new_deps: Iterable[Location]) -> None:
        self.write_strong_bits(
            self.domain.places.index(target), self.domain.locations.mask(new_deps)
        )

    # -- structural operations ---------------------------------------------------

    def copy(self) -> "IndexedDependencyContext":
        return IndexedDependencyContext(self.domain, self.matrix.copy())


class IndexedThetaLattice:
    """Join-semilattice over :class:`IndexedDependencyContext` states.

    Carries the shared per-body domain so ``bottom`` states intern against
    the same tables.
    """

    def __init__(self, domain: BodyIndex):
        self.domain = domain

    def bottom(self) -> IndexedDependencyContext:
        return IndexedDependencyContext(self.domain)

    def join_into(
        self, target: IndexedDependencyContext, source: IndexedDependencyContext
    ) -> bool:
        return target.join_into(source)

    def copy(self, state: IndexedDependencyContext) -> IndexedDependencyContext:
        return state.copy()
