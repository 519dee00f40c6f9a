"""Tests for the ownership-aware type checker."""

import pytest

from repro.errors import TypeCheckError
from repro.lang.parser import assemble_program, parse_program
from repro.lang.typeck import check_program
from repro.lang.types import (
    U32,
    BoolType,
    Mutability,
    RefType,
    StructType,
    TupleType,
    U32Type,
    UnitType,
)
from repro.service.session import AnalysisSession

from helpers import checked_from


def check_err(source):
    with pytest.raises(TypeCheckError) as excinfo:
        checked_from(source)
    return str(excinfo.value)


# ---------------------------------------------------------------------------
# Successful checking and inference
# ---------------------------------------------------------------------------


def test_simple_function_checks():
    checked = checked_from("fn add(a: u32, b: u32) -> u32 { a + b }")
    assert checked.signature("add").arity() == 2


def test_let_infers_type_from_init():
    checked = checked_from("fn f() -> u32 { let x = 41; x + 1 }")
    assert isinstance(checked.program.function("f").body.tail.lhs.ty, U32Type)


def test_comparison_yields_bool():
    checked = checked_from("fn f(a: u32) -> bool { a < 10 }")
    assert isinstance(checked.signature("f").ret_type, BoolType)


def test_struct_field_access_types():
    checked = checked_from(
        """
        struct Point { x: u32, y: u32 }
        fn get_x(p: &Point) -> u32 { p.x }
        """
    )
    fn = checked.program.function("get_x")
    assert isinstance(fn.body.tail.ty, U32Type)
    assert fn.body.tail.field_index == 0


def test_tuple_field_access_resolution():
    checked = checked_from("fn f(t: (u32, bool)) -> bool { t.1 }")
    assert isinstance(checked.signature("f").ret_type, BoolType)


def test_auto_deref_field_access_through_reference():
    checked = checked_from(
        """
        struct S { v: u32 }
        fn read(s: &S) -> u32 { s.v }
        """
    )
    assert checked.function("read") is not None


def test_borrow_expression_type():
    checked = checked_from("fn f() { let mut x = 1; let r = &mut x; *r = 2; }")
    r_ty = checked.program.function("f").body.stmts[1].init.ty
    assert isinstance(r_ty, RefType)
    assert r_ty.mutability is Mutability.MUT


def test_call_return_type_is_resolved_struct():
    checked = checked_from(
        """
        struct Vec;
        extern fn vec_new() -> Vec;
        fn f() { let v = vec_new(); }
        """
    )
    v_ty = checked.program.function("f").body.stmts[0].init.ty
    assert isinstance(v_ty, StructType)
    assert v_ty.opaque


def test_struct_literal_checks_fields():
    checked = checked_from(
        """
        struct Point { x: u32, y: u32 }
        fn make(a: u32) -> Point { Point { x: a, y: 0 } }
        """
    )
    assert checked.signature("make").ret_type.name == "Point"


def test_mut_ref_argument_coerces_to_shared_param():
    checked = checked_from(
        """
        struct Vec;
        extern fn vec_len(v: &Vec) -> u32;
        fn f(v: &mut Vec) -> u32 { vec_len(v) }
        """
    )
    assert checked.function("f") is not None


def test_if_expression_branches_unify():
    checked = checked_from("fn f(c: bool) -> u32 { if c { 1 } else { 2 } }")
    assert isinstance(checked.signature("f").ret_type, U32Type)


# ---------------------------------------------------------------------------
# Signature elaboration (lifetime elision)
# ---------------------------------------------------------------------------


def test_elision_names_every_input_reference():
    checked = checked_from("extern fn f(a: &u32, b: &mut u32);")
    sig = checked.signature("f")
    lifetimes = [ty.lifetime for ty in sig.param_types]
    assert all(lifetime is not None for lifetime in lifetimes)
    assert lifetimes[0] != lifetimes[1]


def test_elision_single_input_lifetime_propagates_to_output():
    checked = checked_from("extern fn first(v: &u32) -> &u32;")
    sig = checked.signature("first")
    assert sig.param_types[0].lifetime == sig.ret_type.lifetime


def test_explicit_lifetimes_are_preserved():
    checked = checked_from("extern fn pick<'a>(a: &'a u32, b: &u32) -> &'a u32;")
    sig = checked.signature("pick")
    assert sig.param_types[0].lifetime == "a"
    assert sig.ret_type.lifetime == "a"
    assert sig.param_types[1].lifetime != "a"


def test_fresh_lifetimes_skip_the_names_a_signature_declares():
    checked = checked_from("extern fn f<'in1>(x: &'in1 mut u32, y: &mut u32) -> &'in1 mut u32;")
    assert checked.signature("f").pretty() == (
        "fn f<'in1, 'in2>(x: &'in1 mut u32, y: &'in2 mut u32) -> &'in1 mut u32"
    )


def test_fresh_lifetimes_are_numbered_per_signature():
    # An elided reference added to one signature renames no later one's.
    before = checked_from("extern fn a(x: u32);\nextern fn b(p: &u32, q: &u32);")
    after = checked_from("extern fn a(x: &u32);\nextern fn b(p: &u32, q: &u32);")
    assert after.signature("b").pretty() == before.signature("b").pretty()


CALLER_OF_A_LIFETIME_TIED_RESULT = """\
fn f<'L>(x: &'L mut u32, y: &mut u32) -> &'L mut u32 {
    x
}

fn g(a: u32, b: u32) -> u32 {
    let mut m = a;
    let mut n = b;
    let r = f(&mut m, &mut n);
    *r = 5;
    m
}
"""


def test_renaming_a_lifetime_does_not_change_the_answer():
    # `'in1` is also the name elision would give `y`'s lifetime.
    answers = []
    for name in ("q", "in1"):
        session = AnalysisSession()
        session.open_unit("main", CALLER_OF_A_LIFETIME_TIED_RESULT.replace("'L", f"'{name}"))
        answers.append(session.analyze(function="g")["functions"]["g"]["dependency_sizes"])
    assert answers[0] == answers[1]


def test_signature_pretty_includes_lifetimes():
    checked = checked_from("extern fn f<'a>(x: &'a mut u32) -> &'a u32;")
    rendered = checked.signature("f").pretty()
    assert "'a" in rendered
    assert "&'a mut u32" in rendered


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_unknown_variable_is_error():
    message = check_err("fn f() -> u32 { missing }")
    assert "unknown variable" in message


def test_unknown_function_is_error():
    message = check_err("fn f() { g(1); }")
    assert "unknown function" in message


def test_arity_mismatch_is_error():
    message = check_err(
        """
        fn g(a: u32) -> u32 { a }
        fn f() -> u32 { g(1, 2) }
        """
    )
    assert "expects 1 arguments" in message


def test_argument_type_mismatch_is_error():
    message = check_err(
        """
        fn g(a: u32) -> u32 { a }
        fn f(b: bool) -> u32 { g(b) }
        """
    )
    assert "argument 0" in message


def test_assign_to_immutable_binding_is_error():
    message = check_err("fn f() { let x = 1; x = 2; }")
    assert "immutable binding" in message


def test_assign_through_shared_reference_is_error():
    message = check_err("fn f(p: &u32) { *p = 1; }")
    assert "shared reference" in message


def test_assign_field_through_shared_reference_is_error():
    message = check_err(
        """
        struct S { v: u32 }
        fn f(s: &S) { s.v = 1; }
        """
    )
    assert "shared reference" in message


def test_condition_must_be_bool():
    message = check_err("fn f(x: u32) { if x { } }")
    assert "must be bool" in message


def test_while_condition_must_be_bool():
    message = check_err("fn f(x: u32) { while x { } }")
    assert "must be bool" in message


def test_arithmetic_on_bool_is_error():
    message = check_err("fn f(a: bool) -> u32 { a + 1 }")
    assert "must be u32" in message


def test_return_type_mismatch_is_error():
    message = check_err("fn f() -> u32 { return true; }")
    assert "return type mismatch" in message


def test_unknown_struct_field_is_error():
    message = check_err(
        """
        struct Point { x: u32 }
        fn f(p: &Point) -> u32 { p.z }
        """
    )
    assert "no field" in message


def test_missing_struct_literal_field_is_error():
    message = check_err(
        """
        struct Point { x: u32, y: u32 }
        fn f() -> Point { Point { x: 1 } }
        """
    )
    assert "missing field" in message


def test_unknown_type_is_error():
    message = check_err("fn f(x: Unknown) { }")
    assert "unknown type" in message


def test_duplicate_function_is_error():
    message = check_err(
        """
        fn f() { }
        fn f() { }
        """
    )
    assert "duplicate function" in message


def test_deref_of_non_reference_is_error():
    message = check_err("fn f(x: u32) -> u32 { *x }")
    assert "dereference" in message


def test_cannot_assign_mismatched_type():
    message = check_err("fn f() { let mut x = 1; x = true; }")
    assert "mismatched types" in message


# ---------------------------------------------------------------------------
# Checked program structure
# ---------------------------------------------------------------------------


def test_local_functions_excludes_dependency_crates():
    checked = check_program(
        parse_program(
            """
            crate deps { extern fn ext(x: u32) -> u32; fn dep_fn() -> u32 { 1 } }
            crate app { fn local_fn() -> u32 { ext(2) } }
            """,
            local_crate="app",
        )
    )
    local_names = {f.decl.name for f in checked.local_functions()}
    assert local_names == {"local_fn"}
    assert checked.fn_crates["dep_fn"] == "deps"


def test_functions_with_bodies_spans_all_crates():
    checked = check_program(
        parse_program(
            """
            crate deps { fn dep_fn() -> u32 { 1 } }
            crate app { fn local_fn() -> u32 { dep_fn() } }
            """,
            local_crate="app",
        )
    )
    names = {f.decl.name for f in checked.functions_with_bodies()}
    assert names == {"dep_fn", "local_fn"}


# ---------------------------------------------------------------------------
# Checking with a previous check
# ---------------------------------------------------------------------------


def items_of(source):
    return parse_program(source).crates[0].items


def test_check_leaves_declarations_as_parsed():
    program = parse_program("struct S { a: u32 }\nfn f(s: S) -> S { s }")
    fn = program.function("f")
    param_ty, ret_type = fn.params[0].ty, fn.ret_type
    checked = check_program(program)
    assert fn.params[0].ty is param_ty and fn.ret_type is ret_type
    assert param_ty.fields == ()
    assert checked.signature("f").param_types[0].fields == (("a", U32),)
    assert fn.body.tail.ty.fields == (("a", U32),)


def test_previous_lends_the_signatures_of_shared_declarations():
    struct, get, bump = items_of(
        "struct S { a: u32, b: u32 }\nfn get(s: &S) -> u32 { s.b }\nfn bump(x: u32) -> u32 { x }"
    )
    first = check_program(assemble_program([struct, get, bump]))
    (edited,) = items_of("fn bump(x: u32) -> u32 { x + 1 }")
    second = check_program(assemble_program([struct, get, edited]), previous=first)
    assert second.signature("get") is first.signature("get")
    assert second.signature("bump") is not first.signature("bump")
    assert second.reused == {"get"}
    # A struct edit elaborates every signature again, with the new fields.
    (reordered,) = items_of("struct S { b: u32, a: u32 }")
    third = check_program(assemble_program([reordered, get, edited]), previous=second)
    assert third.signature("get") is not second.signature("get")
    assert third.signature("get").param_types[0].pointee.field_names() == ["b", "a"]
    assert third.reused == frozenset()
