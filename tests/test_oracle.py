"""Tests for the alias oracles (precise vs Ref-blind type-based aliasing)."""

from repro.borrowck.oracle import PreciseAliasOracle, TypeBlindAliasOracle, make_oracle
from repro.mir.ir import Place

from helpers import lowered_from


SOURCE = """
struct Node { weight: u32 }

fn rewire(parent: &mut Node, child: &mut Node, w: u32) -> u32 {
    parent.weight = w;
    child.weight
}

fn local_borrows(c: bool) -> u32 {
    let mut a = Node { weight: 1 };
    let mut b = Node { weight: 2 };
    let r = &mut a;
    r.weight = 5;
    b.weight
}
"""


def oracles_for(fn_name, ref_blind):
    checked, lowered = lowered_from(SOURCE)
    body = lowered.body(fn_name)
    return body, make_oracle(body, checked.signatures, ref_blind=ref_blind)


def named_place(body, name):
    return Place.from_local(body.local_by_name(name).index)


def test_make_oracle_selects_implementation():
    _body, precise = oracles_for("rewire", ref_blind=False)
    _body2, blind = oracles_for("rewire", ref_blind=True)
    assert isinstance(precise, PreciseAliasOracle)
    assert isinstance(blind, TypeBlindAliasOracle)


def test_precise_oracle_keeps_disjoint_mut_refs_separate():
    body, oracle = oracles_for("rewire", ref_blind=False)
    parent = named_place(body, "parent").project_deref()
    child = named_place(body, "child").project_deref()
    assert oracle.resolve(parent) == frozenset({parent})
    assert oracle.resolve(child) == frozenset({child})


def test_ref_blind_oracle_conflates_same_typed_references():
    # Without lifetimes, *parent may alias *child (the rg3d example of §5.3.3).
    body, oracle = oracles_for("rewire", ref_blind=True)
    parent = named_place(body, "parent").project_deref()
    child = named_place(body, "child").project_deref()
    resolved = oracle.resolve(parent)
    assert child in resolved


def test_ref_blind_includes_borrowed_locals_of_same_type():
    body, oracle = oracles_for("local_borrows", ref_blind=True)
    r = named_place(body, "r")
    resolved = oracle.resolve(r.project_deref())
    a = named_place(body, "a")
    assert a in resolved


def test_precise_oracle_resolves_local_borrow_uniquely():
    body, oracle = oracles_for("local_borrows", ref_blind=False)
    r = named_place(body, "r")
    assert oracle.resolve(r.project_deref()) == frozenset({named_place(body, "a")})


def test_plain_local_resolution_is_identity():
    body, oracle = oracles_for("local_borrows", ref_blind=True)
    a = named_place(body, "a")
    assert oracle.resolve(a) == frozenset({a})
