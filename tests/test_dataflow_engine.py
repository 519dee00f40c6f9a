"""Tests for the generic forward dataflow engine.

Uses a tiny "defined locals" analysis (which locals have definitely been
assigned) as a simple client, independent from the information flow analysis,
to check the fixpoint machinery itself: joins, convergence on loops, and the
per-location state reconstruction.
"""

from repro.dataflow.engine import ForwardAnalysis
from repro.mir.ir import CallTerminator, Goto, Location, StatementKind

from helpers import lowered_from


class DefinedLocalsLattice:
    """Sets of local indices that may have been written (a may-analysis)."""

    def bottom(self):
        return set()

    def join_into(self, target, source):
        before = len(target)
        target |= source
        return len(target) != before

    def copy(self, state):
        return set(state)


def defined_locals_transfer(state, body, location):
    instruction = body.instruction_at(location)
    if isinstance(instruction, CallTerminator):
        state.add(instruction.destination.local)
        return
    if getattr(instruction, "kind", None) is StatementKind.ASSIGN:
        state.add(instruction.place.local)


def run_analysis(source, fn_name):
    _checked, lowered = lowered_from(source)
    body = lowered.body(fn_name)
    analysis = ForwardAnalysis(DefinedLocalsLattice(), defined_locals_transfer)
    return body, analysis.run(body)


def test_straight_line_accumulates_definitions():
    body, result = run_analysis("fn f(a: u32) -> u32 { let b = a + 1; b }", "f")
    final = result.exit_state
    b_local = body.local_by_name("b").index
    assert b_local in final
    assert 0 in final  # the return place was written


def test_branches_join_with_union():
    source = """
    fn f(c: bool) -> u32 {
        let mut x = 0;
        let mut y = 0;
        if c { x = 1; } else { y = 1; }
        x + y
    }
    """
    body, result = run_analysis(source, "f")
    final = result.exit_state
    assert body.local_by_name("x").index in final
    assert body.local_by_name("y").index in final


def test_loop_reaches_fixpoint():
    source = """
    fn f(n: u32) -> u32 {
        let mut i = 0;
        while i < n { i = i + 1; }
        i
    }
    """
    _body, result = run_analysis(source, "f")
    assert result.iterations > 0
    assert result.exit_state  # non-empty and terminated


def test_state_at_and_after_locations_differ_across_assignment():
    body, result = run_analysis("fn f() -> u32 { let z = 4; z }", "f")
    z_local = body.local_by_name("z").index
    # Find the statement assigning z.
    target = None
    for location in body.locations():
        stmt = body.statement_at(location)
        if stmt is not None and stmt.kind is StatementKind.ASSIGN and stmt.place.local == z_local:
            target = location
            break
    assert target is not None
    assert z_local not in result.state_at(target)
    assert z_local in result.state_after(target)


def test_exit_state_is_the_join_of_the_return_blocks_final_out_states():
    source = """
    fn f(n: u32) -> u32 {
        let mut i = 0;
        let mut j = 0;
        while i < n { j = 1; i = i + 1; }
        if i > 3 { return j; }
        i
    }
    """
    body, result = run_analysis(source, "f")
    replayed = set()
    for block in body.return_blocks():
        replayed |= result.state_after(body.terminator_location(block))
    assert result.exit_state == replayed
    assert body.local_by_name("j").index in result.exit_state


def test_unreached_return_block_is_replayed_from_its_entry_state():
    _checked, lowered = lowered_from("fn f(a: u32) -> u32 { a + 1 }")
    body = lowered.body("f")
    (return_block,) = body.return_blocks()
    # Loop every edge into the return block back on itself: the run never
    # reaches it, so its exit is the replay of its locations from bottom.
    for index, block in enumerate(body.blocks):
        if return_block in block.terminator.successors():
            block.terminator = Goto(target=index)

    def visited(state, body, location):
        state.add(location)

    result = ForwardAnalysis(DefinedLocalsLattice(), visited).run(body)
    assert result.entry_states[return_block] == set()
    assert result.exit_state == {body.terminator_location(return_block)}


def test_boundary_state_seeds_entry_block():
    source = "fn f(a: u32) -> u32 { a }"
    _checked, lowered = lowered_from(source)
    body = lowered.body("f")
    analysis = ForwardAnalysis(
        DefinedLocalsLattice(),
        defined_locals_transfer,
        boundary_state=lambda b: {local.index for local in b.arg_locals()},
    )
    result = analysis.run(body)
    assert 1 in result.entry_states[0]
