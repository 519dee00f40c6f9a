"""Property-based tests (hypothesis) on core data structures and invariants.

Three groups:

* algebraic laws of the place/conflict relation (Section 2.1),
* join-semilattice laws of the dependency context Θ in both domains (needed
  for the dataflow fixpoint to be well-defined), and the law the fixpoint
  loop's change test rests on: ``join_into`` reports True exactly when its
  target changed,
* cross-condition invariants of the analysis itself on randomly generated
  programs: determinism, and the precision ordering
  ``Whole-program ⊆ Modular ⊆ Mut-blind`` on every variable's dependency set.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine
from repro.core.theta import DependencyContext, IndexedThetaLattice, ThetaLattice
from repro.mir.indices import BodyIndex, LocationDomain, PlaceDomain
from repro.mir.ir import Location, Place, PlaceElem


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def places(max_local=3, max_depth=3):
    elem = st.one_of(
        st.builds(PlaceElem.fld, st.integers(min_value=0, max_value=2)),
        st.just(PlaceElem.deref()),
    )
    return st.builds(
        Place,
        st.integers(min_value=0, max_value=max_local),
        st.lists(elem, max_size=max_depth).map(tuple),
    )


def locations():
    return st.builds(
        Location,
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )


def dependency_contexts():
    return st.dictionaries(
        places(), st.frozensets(locations(), max_size=4), max_size=6
    ).map(lambda d: DependencyContext(dict(d)))


# ---------------------------------------------------------------------------
# Conflict relation laws
# ---------------------------------------------------------------------------


@given(places())
def test_conflict_is_reflexive(place):
    assert place.conflicts_with(place)


@given(places(), places())
def test_conflict_is_symmetric(a, b):
    assert a.conflicts_with(b) == b.conflicts_with(a)


@given(places(), places())
def test_prefix_implies_conflict(a, b):
    if a.is_prefix_of(b):
        assert a.conflicts_with(b)


@given(places(), places())
def test_different_locals_never_conflict(a, b):
    if a.local != b.local:
        assert not a.conflicts_with(b)
        assert not a.is_prefix_of(b)


@given(places(), st.integers(min_value=0, max_value=3))
def test_projection_extends_prefix(place, index):
    extended = place.project_field(index)
    assert place.is_prefix_of(extended)
    assert extended.conflicts_with(place)
    assert extended.base_local() == Place.from_local(place.local)


# ---------------------------------------------------------------------------
# Θ join-semilattice laws
# ---------------------------------------------------------------------------


# Each law holds in both Θ domains.  ``make`` gives a domain's lattice and a
# conversion of a generated object-domain context into it; a join is folded
# with ``join_into`` into a copy, so no input is mutated.


def object_domain():
    return ThetaLattice(), DependencyContext.copy


def indexed_domain():
    lattice = IndexedThetaLattice(BodyIndex(None, PlaceDomain(), LocationDomain()))

    def convert(theta):
        out = lattice.bottom()
        for place, deps in theta.items():
            out.set(place, deps)
        return out

    return lattice, convert


domains = pytest.mark.parametrize(
    "make", [object_domain, indexed_domain], ids=["object", "indexed"]
)


def joined(lattice, first, *rest):
    out = lattice.copy(first)
    for state in rest:
        lattice.join_into(out, state)
    return out


def contents(theta):
    return dict(theta.items())


@domains
@given(dependency_contexts(), dependency_contexts())
def test_join_is_commutative(make, a, b):
    lattice, convert = make()
    a, b = convert(a), convert(b)
    assert contents(joined(lattice, a, b)) == contents(joined(lattice, b, a))


@domains
@given(dependency_contexts(), dependency_contexts(), dependency_contexts())
def test_join_is_associative(make, a, b, c):
    lattice, convert = make()
    a, b, c = convert(a), convert(b), convert(c)
    left = joined(lattice, joined(lattice, a, b), c)
    right = joined(lattice, a, joined(lattice, b, c))
    assert contents(left) == contents(right)


@domains
@given(dependency_contexts())
def test_join_is_idempotent_with_bottom_identity(make, a):
    lattice, convert = make()
    a = convert(a)
    assert contents(joined(lattice, a, a)) == contents(a)
    assert contents(joined(lattice, a, lattice.bottom())) == contents(a)
    assert contents(joined(lattice, lattice.bottom(), a)) == contents(a)


@domains
@given(dependency_contexts(), dependency_contexts())
def test_join_is_an_upper_bound(make, a, b):
    lattice, convert = make()
    a, b = convert(a), convert(b)
    join = joined(lattice, a, b)
    for place, deps in a.items():
        assert deps <= join.get(place)
    for place, deps in b.items():
        assert deps <= join.get(place)


@domains
@given(dependency_contexts(), dependency_contexts())
def test_join_into_reports_exactly_when_the_target_changed(make, a, b):
    lattice, convert = make()
    target, source = convert(a), convert(b)
    before = contents(target)
    changed = lattice.join_into(target, source)
    assert changed == (contents(target) != before)
    assert not lattice.join_into(target, source)


@given(dependency_contexts(), places(), st.frozensets(locations(), max_size=3))
def test_weak_write_only_grows_the_context(theta, place, new_deps):
    before = theta.copy()
    theta.write_weak(place, new_deps)
    for tracked, deps in before.items():
        assert deps <= theta.get(tracked)
    assert new_deps <= theta.get(place)


@given(dependency_contexts(), places())
def test_read_conflicts_subset_of_all_locations(theta, place):
    everything = set()
    for _tracked, deps in theta.items():
        everything |= deps
    assert set(theta.read_conflicts(place)) <= everything


# ---------------------------------------------------------------------------
# Analysis invariants on generated programs
# ---------------------------------------------------------------------------


@st.composite
def small_programs(draw):
    """Generate a caller + two helpers exercising calls, branches, and refs."""
    mutates = draw(st.booleans())
    uses_y = draw(st.booleans())
    branch_threshold = draw(st.integers(min_value=0, max_value=9))
    extra_call = draw(st.booleans())

    helper_body = []
    if mutates:
        helper_body.append("    *x = *x + y;")
    result = "y + 1" if uses_y else "*x"
    helper = "fn helper(x: &mut u32, y: u32) -> u32 {\n" + "\n".join(helper_body) + f"\n    {result}\n}}"

    caller_lines = [
        "fn caller(a: u32, b: u32, c: u32) -> u32 {",
        "    let mut x = a;",
        "    let mut acc = 0;",
        f"    if c > {branch_threshold} {{",
        "        acc = helper(&mut x, b);",
        "    }",
    ]
    if extra_call:
        caller_lines.append("    acc = acc + peek(&x);")
    caller_lines.append("    x + acc")
    caller_lines.append("}")

    source = "extern fn peek(v: &u32) -> u32;\n" + helper + "\n" + "\n".join(caller_lines)
    return source


def sizes_under(source, config):
    engine = FlowEngine.from_source(source, config=config)
    return engine.analyze_function("caller").dependency_sizes()


@settings(max_examples=25, deadline=None)
@given(source=small_programs())
def test_analysis_is_deterministic(source):
    first = sizes_under(source, AnalysisConfig())
    second = sizes_under(source, AnalysisConfig())
    assert first == second


@settings(max_examples=25, deadline=None)
@given(source=small_programs())
def test_whole_program_is_at_least_as_precise_as_modular(source):
    modular = sizes_under(source, AnalysisConfig())
    whole = sizes_under(source, AnalysisConfig(whole_program=True))
    for variable, size in whole.items():
        assert size <= modular[variable], variable


@settings(max_examples=25, deadline=None)
@given(source=small_programs())
def test_mut_blind_is_never_more_precise_than_modular(source):
    modular = sizes_under(source, AnalysisConfig())
    blind = sizes_under(source, AnalysisConfig(mut_blind=True))
    for variable, size in modular.items():
        assert blind[variable] >= size, variable


@settings(max_examples=15, deadline=None)
@given(source=small_programs())
def test_disabling_strong_updates_is_never_more_precise(source):
    strong = sizes_under(source, AnalysisConfig())
    additive = sizes_under(source, AnalysisConfig(strong_updates=False))
    for variable, size in strong.items():
        assert additive[variable] >= size, variable
