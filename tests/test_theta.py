"""Tests for the dependency context Θ and its lattice structure."""

from repro.core.theta import DependencyContext, ThetaLattice, arg_location, is_arg_location
from repro.mir.ir import Location, Place


def loc(block, stmt):
    return Location(block, stmt)


def place(local, *fields):
    p = Place.from_local(local)
    for index in fields:
        p = p.project_field(index)
    return p


def test_get_of_unknown_place_is_empty():
    theta = DependencyContext()
    assert theta.get(place(1)) == frozenset()


def test_set_and_add_accumulate():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.add(place(1), [loc(0, 1)])
    assert theta.get(place(1)) == {loc(0, 0), loc(0, 1)}


def test_read_of_whole_place_includes_tracked_fields():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 0), [loc(0, 1)])
    theta.set(place(1, 1), [loc(0, 2)])
    theta.set(place(2), [loc(9, 9)])
    # Reading the whole tuple sees every field; other locals are unrelated.
    assert theta.read_conflicts(place(1)) == {loc(0, 0), loc(0, 1), loc(0, 2)}
    assert loc(9, 9) not in theta.read_conflicts(place(1))


def test_read_of_tracked_field_is_field_sensitive():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 0), [loc(0, 1)])
    theta.set(place(1, 1), [loc(0, 2)])
    # A tracked field sees only its own entry (and tracked sub-places), not
    # the root's accumulated dependencies nor its sibling's.
    assert theta.read_conflicts(place(1, 0)) == {loc(0, 1)}


def test_read_of_untracked_place_falls_back_to_nearest_ancestor():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 0), [loc(0, 1)])
    # place(1).field(0).field(2) is untracked: the nearest tracked ancestor is
    # place(1).field(0), so its dependencies (not the root's) are used.
    assert theta.read_conflicts(place(1, 0, 2)) == {loc(0, 1)}
    # A completely untracked local reads as empty.
    assert theta.read_conflicts(place(7)) == frozenset()


def test_write_weak_updates_all_conflicts_additively():
    # The paper's update-conflicts: mutating t.1 adds to t and t.1 but not t.0.
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 0), [loc(0, 0)])
    theta.set(place(1, 1), [loc(0, 0)])
    theta.write_weak(place(1, 1), [loc(2, 0)])
    assert loc(2, 0) in theta.get(place(1))
    assert loc(2, 0) in theta.get(place(1, 1))
    assert loc(2, 0) not in theta.get(place(1, 0))


def test_write_strong_replaces_target_and_descendants():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 0), [loc(0, 1)])
    theta.write_strong(place(1), [loc(5, 0)])
    assert theta.get(place(1)) == {loc(5, 0)}
    assert theta.get(place(1, 0)) == {loc(5, 0)}


def test_write_strong_accumulates_into_ancestors():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(1, 1), [loc(0, 0)])
    theta.write_strong(place(1, 1), [loc(3, 0)])
    assert theta.get(place(1, 1)) == {loc(3, 0)}
    assert theta.get(place(1)) == {loc(0, 0), loc(3, 0)}


def test_join_is_keywise_union():
    a = DependencyContext()
    a.set(place(1), [loc(0, 0)])
    b = DependencyContext()
    b.set(place(1), [loc(1, 0)])
    b.set(place(2), [loc(2, 0)])
    joined = a.copy()
    assert joined.join_into(b)
    assert joined.get(place(1)) == {loc(0, 0), loc(1, 0)}
    assert joined.get(place(2)) == {loc(2, 0)}
    # The source and the original are not mutated.
    assert a.get(place(1)) == {loc(0, 0)}
    assert b.get(place(1)) == {loc(1, 0)}


def test_join_identity_and_idempotence():
    lattice = ThetaLattice()
    a = DependencyContext()
    a.set(place(1), [loc(0, 0)])
    target = lattice.copy(a)
    assert not lattice.join_into(target, lattice.bottom())
    assert not lattice.join_into(target, a)
    assert target.deps == a.deps


def test_copy_is_independent():
    a = DependencyContext()
    a.set(place(1), [loc(0, 0)])
    b = a.copy()
    b.add(place(1), [loc(1, 1)])
    assert a.get(place(1)) == {loc(0, 0)}


def test_arg_locations_are_distinguishable():
    tag = arg_location(3)
    assert is_arg_location(tag)
    assert not is_arg_location(loc(0, 0))
    assert tag.statement == 3


def test_read_many_unions_over_targets():
    theta = DependencyContext()
    theta.set(place(1), [loc(0, 0)])
    theta.set(place(2), [loc(1, 0)])
    assert theta.read_many([place(1), place(2)]) == {loc(0, 0), loc(1, 0)}
