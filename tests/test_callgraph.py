"""Tests for call graph construction."""

from repro.mir.callgraph import build_call_graph, calls_in_body

from helpers import lowered_from


SOURCE = """
extern fn ext(x: u32) -> u32;

fn leaf(x: u32) -> u32 { x + 1 }

fn middle(x: u32) -> u32 { leaf(x) + leaf(x) }

fn top(x: u32) -> u32 { middle(ext(x)) }

fn looper(x: u32) -> u32 {
    if x == 0 { 0 } else { looper(x - 1) }
}
"""


def graph():
    _checked, lowered = lowered_from(SOURCE)
    return build_call_graph(lowered), lowered


def test_edges_and_multiplicity():
    cg, _ = graph()
    assert cg.callees("middle") == ["leaf", "leaf"]
    assert cg.unique_callees("middle") == ["leaf"]


def test_extern_functions_are_leaf_nodes():
    cg, _ = graph()
    assert "ext" in cg.nodes
    assert cg.callees("ext") == []


def test_callers():
    cg, _ = graph()
    assert cg.callers("leaf") == ["middle"]
    assert "top" in cg.callers("middle")


def test_reachability_and_transitive_count():
    cg, _ = graph()
    reachable = cg.reachable_from("top")
    assert {"top", "middle", "leaf", "ext"} == reachable


def test_calls_in_body_lists_terminator_targets():
    _, lowered = graph()
    assert sorted(calls_in_body(lowered.body("top"))) == ["ext", "middle"]
