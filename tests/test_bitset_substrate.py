"""Unit tests for the indexed dataflow substrate.

Covers the three layers introduced by the bitset refactor: the interning
tables (:mod:`repro.mir.indices`), the bitset/matrix storage
(:mod:`repro.dataflow.bitset`), and the indexed dependency context
(:class:`repro.core.theta.IndexedDependencyContext`) — the last one by
mirroring the object-domain semantics tests of ``test_theta.py``.
"""

import pytest

from repro.core.theta import (
    DependencyContext,
    IndexedDependencyContext,
    IndexedThetaLattice,
    arg_location,
)
from repro.dataflow.bitset import IndexMatrix, iter_bits, mask_of, popcount
from repro.mir.indices import BodyIndex, LocationDomain, PlaceDomain, index_body
from repro.mir.ir import Location, Place


def loc(block, stmt):
    return Location(block, stmt)


def place(local, *fields):
    p = Place.from_local(local)
    for index in fields:
        p = p.project_field(index)
    return p


def make_domain():
    locations = LocationDomain(
        [arg_location(i) for i in range(4)]
        + [Location(b, s) for b in range(10) for s in range(4)]
    )
    return BodyIndex(None, PlaceDomain(), locations)


# ---------------------------------------------------------------------------
# Bit masks / IndexMatrix
# ---------------------------------------------------------------------------


def test_popcount_and_iter_bits():
    bits = mask_of([0, 3, 17, 64])
    assert popcount(bits) == 4
    assert list(iter_bits(bits)) == [0, 3, 17, 64]


def test_index_matrix_or_row_dirty_bit_and_row_materialisation():
    m = IndexMatrix()
    assert m.or_row(2, 0)  # row materialised even when empty
    assert 2 in m
    assert not m.or_row(2, 0)
    assert m.or_row(2, 0b101)
    assert not m.or_row(2, 0b001)
    assert m.row(2) == 0b101
    assert m.row(7) == 0


def test_index_matrix_union_into_returns_dirty_bit():
    a = IndexMatrix({1: 0b01})
    b = IndexMatrix({1: 0b10, 2: 0b11})
    assert a.union_into(b)
    assert a.rows == {1: 0b11, 2: 0b11}
    assert not a.union_into(b)
    assert a.keys_mask == mask_of([1, 2])


def test_index_matrix_equality_is_insertion_order_free():
    a = IndexMatrix()
    a.set_row(1, 0b1)
    a.set_row(2, 0b10)
    b = IndexMatrix()
    b.set_row(2, 0b10)
    b.set_row(1, 0b1)
    assert a == b


def test_index_matrix_density_and_popcount():
    m = IndexMatrix({0: 0b111, 1: 0b1})
    assert m.popcount_total() == 4
    assert m.density(2, 4) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# PlaceDomain / LocationDomain
# ---------------------------------------------------------------------------


def test_place_domain_interning_is_stable_and_extensible():
    domain = PlaceDomain()
    a = domain.index(place(1))
    b = domain.index(place(1, 0))
    assert domain.index(place(1)) == a
    assert domain.place_of(b) == place(1, 0)
    assert len(domain) == 2
    # Late interning still updates the existing places' masks.
    c = domain.index(place(1, 0, 2))
    assert domain.descendants_mask(a) == mask_of([a, b, c])
    assert domain.ancestors_mask(c) == mask_of([a, b, c])
    assert domain.conflicts_mask(b) == mask_of([a, b, c])


def test_place_domain_siblings_do_not_conflict():
    domain = PlaceDomain()
    root = domain.index(place(1))
    left = domain.index(place(1, 0))
    right = domain.index(place(1, 1))
    other = domain.index(place(2))
    assert not (domain.conflicts_mask(left) >> right) & 1
    assert not (domain.conflicts_mask(left) >> other) & 1
    assert (domain.conflicts_mask(left) >> root) & 1


def test_place_domain_projection_memos():
    domain = PlaceDomain()
    base = domain.index(place(3))
    fld = domain.project_field_index(base, 1)
    assert domain.place_of(fld) == place(3, 1)
    assert domain.project_field_index(base, 1) == fld
    deref = domain.project_deref_index(base)
    assert domain.place_of(deref) == place(3).project_deref()
    assert domain.base_index(3) == base


def test_location_domain_monotone_iteration_is_sorted_without_sorting():
    domain = LocationDomain(
        [arg_location(0), arg_location(1), loc(0, 0), loc(0, 1), loc(2, 0)]
    )
    assert domain.is_monotone
    bits = domain.mask([loc(2, 0), arg_location(1), loc(0, 0)])
    assert domain.locations_of(bits) == [arg_location(1), loc(0, 0), loc(2, 0)]
    assert domain.arg_tag_mask == domain.mask([arg_location(0), arg_location(1)])


def test_location_domain_out_of_order_interning_falls_back_to_sorting():
    domain = LocationDomain([loc(5, 0)])
    domain.index(loc(1, 0))  # out of order
    assert not domain.is_monotone
    bits = domain.mask([loc(5, 0), loc(1, 0)])
    assert domain.locations_of(bits) == [loc(1, 0), loc(5, 0)]


def test_location_cached_hash_and_total_order():
    a, b = loc(1, 2), loc(1, 2)
    assert hash(a) == hash(b)
    assert a == b
    assert loc(0, 5) < loc(1, 0) < loc(1, 1)
    assert arg_location(0) < loc(0, 0)  # tags sort before real locations


# ---------------------------------------------------------------------------
# IndexedDependencyContext ≡ DependencyContext
# ---------------------------------------------------------------------------


def both_contexts():
    return DependencyContext(), IndexedDependencyContext(make_domain())


def assert_same(obj_theta, idx_theta):
    assert dict(obj_theta.items()) == dict(idx_theta.items())


def test_indexed_read_conflicts_matches_object():
    for theta in both_contexts():
        theta.set(place(1), [loc(0, 0)])
        theta.set(place(1, 0), [loc(0, 1)])
        theta.set(place(1, 1), [loc(0, 2)])
        theta.set(place(2), [loc(9, 9)])
        assert theta.read_conflicts(place(1)) == {loc(0, 0), loc(0, 1), loc(0, 2)}
        assert theta.read_conflicts(place(1, 0)) == {loc(0, 1)}
        # Untracked place: nearest tracked ancestor.
        assert theta.read_conflicts(place(1, 0, 2)) == {loc(0, 1)}
        assert theta.read_conflicts(place(7)) == frozenset()


def test_indexed_writes_match_object():
    obj, idx = both_contexts()
    for theta in (obj, idx):
        theta.set(place(1), [loc(0, 0)])
        theta.set(place(1, 0), [loc(0, 0)])
        theta.set(place(1, 1), [loc(0, 0)])
        theta.write_weak(place(1, 1), [loc(2, 0)])
        theta.write_strong(place(1, 0), [loc(5, 0)])
    assert_same(obj, idx)
    assert loc(2, 0) in idx.get(place(1))
    assert loc(2, 0) not in idx.get(place(1, 0))
    assert idx.get(place(1, 0)) == {loc(5, 0)}


def test_indexed_join_and_lattice_dirty_bit():
    domain = make_domain()
    lattice = IndexedThetaLattice(domain)
    a = lattice.bottom()
    a.set(place(1), [loc(0, 0)])
    b = lattice.bottom()
    b.set(place(1), [loc(1, 0)])
    b.set(place(2), [loc(2, 0)])
    joined = lattice.copy(a)
    # In-place join reports the dirty bit, and is idempotent.
    assert lattice.join_into(joined, b)
    assert not lattice.join_into(joined, b)
    assert joined.get(place(1)) == {loc(0, 0), loc(1, 0)}
    assert joined.get(place(2)) == {loc(2, 0)}
    # The copied original and the source are not mutated.
    assert a.get(place(1)) == {loc(0, 0)}
    assert b.get(place(1)) == {loc(1, 0)}


def test_indexed_copy_is_independent():
    _, idx = both_contexts()
    idx.set(place(1), [loc(0, 0), loc(0, 1)])
    copied = idx.copy()
    copied.add(place(1), [loc(3, 0)])
    assert idx.get(place(1)) == {loc(0, 0), loc(0, 1)}


def test_indexed_sorted_iteration_via_domain():
    _, idx = both_contexts()
    idx.set(place(1), [loc(2, 0), loc(0, 1), arg_location(1)])
    bits = idx.matrix.rows[idx.domain.places.index(place(1))]
    assert idx.domain.locations.locations_of(bits) == [
        arg_location(1),
        loc(0, 1),
        loc(2, 0),
    ]


def test_index_body_seeds_locals_and_monotone_locations():
    from helpers import lowered_from

    _, lowered = lowered_from(
        "fn f(a: u32, b: u32) -> u32 { let c = a + b; if c > 3 { c } else { a } }"
    )
    body = lowered.body("f")
    tables = index_body(body)
    # Every local is pre-interned; the location table is arg tags + every
    # body location, monotone in location order.
    for local in body.locals:
        assert Place.from_local(local.index) in tables.places
    assert tables.locations.is_monotone
    assert len(tables.locations) == body.num_instructions() + body.arg_count
