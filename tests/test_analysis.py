"""End-to-end tests for the per-function information flow analysis.

These tests exercise the behaviours Section 2 and Figure 1 of the paper call
out: field-sensitivity, mutation through references, the modular call rule
(mutability + lifetimes), and indirect flows via control dependence.
"""

from repro.core.config import AnalysisConfig
from repro.core.theta import is_arg_location
from repro.mir.ir import RETURN_LOCAL, CallTerminator, Place

from helpers import GET_COUNT_SOURCE, analyze


def deps_of(result, name):
    return result.deps_of_variable(name)


def arg_tags(deps):
    return {d.statement for d in deps if is_arg_location(d)}


def real_locations(deps):
    return {d for d in deps if not is_arg_location(d)}


def call_location(result, fn_name):
    for index, block in enumerate(result.body.blocks):
        if isinstance(block.terminator, CallTerminator) and block.terminator.func == fn_name:
            return result.body.terminator_location(index)
    raise AssertionError(f"no call to {fn_name}")


# ---------------------------------------------------------------------------
# Direct flows
# ---------------------------------------------------------------------------


def test_variable_depends_on_its_initializer_argument():
    result = analyze("fn f(a: u32, b: u32) -> u32 { let x = a + 1; x }", "f")
    assert arg_tags(deps_of(result, "x")) == {0}
    assert arg_tags(result.deps_of_return()) == {0}


def test_unused_argument_does_not_flow():
    result = analyze("fn f(a: u32, b: u32) -> u32 { a }", "f")
    assert arg_tags(result.deps_of_return()) == {0}


def test_field_sensitivity_of_tuple_assignment():
    # The §2.1 example: mutating t.1 must not pollute t.0.
    source = """
    fn f(a: u32, b: u32) -> u32 {
        let mut t = (a, b);
        t.1 = 3;
        t.0
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0}


def test_whole_tuple_read_sees_both_fields():
    source = """
    fn f(a: u32, b: u32) -> (u32, u32) {
        let mut t = (a, 0);
        t.1 = b;
        t
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0, 1}


def test_struct_field_mutation_is_field_sensitive():
    source = """
    struct P { x: u32, y: u32 }
    fn f(a: u32, b: u32) -> u32 {
        let mut p = P { x: a, y: 0 };
        p.y = b;
        p.x
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0}


def test_strong_update_forgets_old_dependency():
    source = """
    fn f(a: u32, b: u32) -> u32 {
        let mut x = a;
        x = b;
        x
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {1}


def test_additive_updates_when_strong_updates_disabled():
    source = """
    fn f(a: u32, b: u32) -> u32 {
        let mut x = a;
        x = b;
        x
    }
    """
    result = analyze(source, "f", AnalysisConfig(strong_updates=False))
    assert arg_tags(result.deps_of_return()) == {0, 1}


# ---------------------------------------------------------------------------
# References and mutation (T-AssignDeref)
# ---------------------------------------------------------------------------


def test_mutation_through_reference_reaches_referent():
    source = """
    fn f(a: u32) -> u32 {
        let mut x = 0;
        let r = &mut x;
        *r = a;
        x
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0}


def test_reborrowed_field_mutation_is_field_sensitive():
    # The §2.2 example: *z := 1 where z points to x.1 must not affect x.0.
    source = """
    fn f(a: u32) -> (u32, u32) {
        let mut x = (0, 0);
        let y = &mut x;
        let z = &mut y.1;
        *z = a;
        x
    }
    """
    result = analyze(source, "f")
    body = result.body
    x_local = body.local_by_name("x").index
    x0_deps = result.deps_of_place(Place.from_local(x_local).project_field(0))
    x1_deps = result.deps_of_place(Place.from_local(x_local).project_field(1))
    assert 0 not in arg_tags(x0_deps)
    assert 0 in arg_tags(x1_deps)


def test_conditional_pointer_target_weakly_updates_both():
    source = """
    fn f(c: bool, v: u32) -> u32 {
        let mut a = 1;
        let mut b = 2;
        let mut r = &mut a;
        if c {
            r = &mut b;
        }
        *r = v;
        a
    }
    """
    result = analyze(source, "f")
    # `a` may or may not have been written: it keeps its old deps and gains v's.
    a_deps = arg_tags(deps_of(result, "a"))
    assert 1 in a_deps


# ---------------------------------------------------------------------------
# Calls: the modular rule (T-App)
# ---------------------------------------------------------------------------


def test_call_mutates_only_mutable_reference_arguments():
    source = """
    extern fn combine(dst: &mut u32, src: &u32, k: u32);
    fn f(a: u32, b: u32) -> u32 {
        let mut x = a;
        let y = b;
        combine(&mut x, &y, 3);
        y
    }
    """
    result = analyze(source, "f")
    # y was only passed by shared reference: it must keep exactly its own deps.
    assert arg_tags(deps_of(result, "y")) == {1}
    # x was passed by &mut: it now depends on everything readable (a and b).
    assert arg_tags(deps_of(result, "x")) == {0, 1}


def test_mut_blind_treats_shared_refs_as_mutable():
    source = """
    extern fn inspect(v: &u32);
    fn f(a: u32, b: u32) -> u32 {
        let x = a;
        inspect(&x);
        x
    }
    """
    precise = analyze(source, "f")
    blind = analyze(source, "f", AnalysisConfig(mut_blind=True))
    inspect_loc = call_location(blind, "inspect")
    assert inspect_loc not in real_locations(precise.deps_of_return())
    assert inspect_loc in real_locations(blind.deps_of_return())


def test_call_return_value_depends_on_all_readable_inputs():
    source = """
    extern fn mix(a: &u32, b: u32) -> u32;
    fn f(p: u32, q: u32) -> u32 {
        let r = mix(&p, q);
        r
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0, 1}


def test_call_mutation_through_argument_pointee_includes_all_inputs():
    source = """
    struct Buf;
    extern fn write(b: &mut Buf, value: u32);
    fn f(b: &mut Buf, secret: u32) {
        write(b, secret);
    }
    """
    result = analyze(source, "f")
    b_local = result.body.local_by_name("b").index
    pointee_deps = result.deps_of_place(Place.from_local(b_local).project_deref())
    assert 1 in arg_tags(pointee_deps)


def test_ref_blind_conflates_disjoint_mut_arguments():
    source = """
    struct Node { w: u32 }
    extern fn touch(n: &mut Node, v: u32);
    fn f(parent: &mut Node, child: &mut Node, v: u32) -> u32 {
        touch(parent, v);
        child.w
    }
    """
    precise = analyze(source, "f")
    blind = analyze(source, "f", AnalysisConfig(ref_blind=True))
    touch_loc = call_location(blind, "touch")
    assert touch_loc not in real_locations(precise.deps_of_return())
    assert touch_loc in real_locations(blind.deps_of_return())


# ---------------------------------------------------------------------------
# Control dependence (indirect flows)
# ---------------------------------------------------------------------------


def test_mutation_inside_branch_picks_up_condition():
    source = """
    fn f(c: bool, v: u32) -> u32 {
        let mut x = 0;
        if c {
            x = v;
        }
        x
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0, 1}


def test_control_deps_can_be_disabled():
    source = """
    fn f(c: bool, v: u32) -> u32 {
        let mut x = 0;
        if c {
            x = v;
        }
        x
    }
    """
    result = analyze(source, "f", AnalysisConfig(track_control_deps=False))
    assert arg_tags(result.deps_of_return()) == {1}


def test_loop_carried_dependencies_reach_fixpoint():
    source = """
    fn f(n: u32, seed: u32) -> u32 {
        let mut acc = seed;
        let mut i = 0;
        while i < n {
            acc = acc + i;
            i = i + 1;
        }
        acc
    }
    """
    result = analyze(source, "f")
    assert arg_tags(result.deps_of_return()) == {0, 1}


def test_get_count_indirect_flow_matches_figure1():
    result = analyze(GET_COUNT_SOURCE, "get_count")
    h_deps = real_locations(deps_of(result, "h"))
    insert_loc = call_location(result, "insert")
    contains_loc = call_location(result, "contains_key")
    # The map depends on the insert call (direct mutation) and on the
    # contains_key result via the switch (indirect/control flow).
    assert insert_loc in h_deps
    assert contains_loc in h_deps
    # k is never mutated: it depends only on itself.
    assert arg_tags(deps_of(result, "k")) == {1}
    assert real_locations(deps_of(result, "k")) == set()


# ---------------------------------------------------------------------------
# Result API
# ---------------------------------------------------------------------------


def test_dependency_sizes_reports_every_local():
    result = analyze(GET_COUNT_SOURCE, "get_count")
    sizes = result.dependency_sizes()
    assert "<return>" in sizes
    assert "h" in sizes and "k" in sizes
    assert all(isinstance(size, int) for size in sizes.values())
    # Temporaries count too, under their ``_<index>`` label.
    assert set(sizes) == {"<return>"} | {
        local.name if local.name is not None else f"_{local.index}"
        for local in result.body.locals
        if local.index != RETURN_LOCAL
    }


def test_backward_slice_excludes_argument_tags():
    result = analyze(GET_COUNT_SOURCE, "get_count")
    for location in result.backward_slice_of_variable("h"):
        assert location.block >= 0


def test_forward_slice_contains_source_and_downstream():
    source = """
    fn f(a: u32) -> u32 {
        let x = a + 1;
        let y = x * 2;
        let z = 7;
        y
    }
    """
    result = analyze(source, "f")
    body = result.body
    x_local = body.local_by_name("x").index
    x_def = None
    for location in body.locations():
        stmt = body.statement_at(location)
        if stmt is not None and stmt.place is not None and stmt.place.local == x_local:
            x_def = location
            break
    forward = result.forward_slice(x_def)
    assert x_def in forward
    # y is downstream of x, z is not.
    y_local = body.local_by_name("y").index
    z_local = body.local_by_name("z").index
    written_locals = set()
    for location in forward:
        stmt = body.statement_at(location)
        if stmt is not None and stmt.place is not None:
            written_locals.add(stmt.place.local)
    assert y_local in written_locals
    assert z_local not in written_locals


def test_annotations_cover_assignments():
    result = analyze("fn f(a: u32) -> u32 { let x = a; x }", "f")
    annotations = result.annotations()
    assert annotations
    assert all("Θ(" in text for text in annotations.values())


def test_theta_at_location_reconstructs_intermediate_states():
    source = """
    fn f(a: u32, b: u32) -> u32 {
        let mut x = a;
        x = x + b;
        x
    }
    """
    result = analyze(source, "f")
    body = result.body
    x_local = body.local_by_name("x").index
    locations = [
        location
        for location in body.locations()
        if body.statement_at(location) is not None
        and body.statement_at(location).place is not None
        and body.statement_at(location).place.local == x_local
    ]
    first, second = locations[0], locations[1]
    before_second = result.theta_at(second).read_conflicts(Place.from_local(x_local))
    after_second = result.theta_after(second).read_conflicts(Place.from_local(x_local))
    assert arg_tags(before_second) == {0}
    assert arg_tags(after_second) == {0, 1}
