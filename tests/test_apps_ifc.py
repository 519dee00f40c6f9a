"""Tests for the IFC checker application (Figure 5b)."""

import json

import pytest

from helpers import HELPER_CALLER_SOURCE

from repro.apps.ifc import IfcChecker, IfcPolicy, SecurityLabel, render_report
from repro.core.analysis import FunctionFlowAnalysis
from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.service.protocol import AnalysisService
from repro.service.session import AnalysisSession


SOURCE = """
struct Password { value: u32 }
struct Session { user: u32 }

extern fn insecure_print(x: u32);
extern fn secure_log(x: u32);
extern fn hash(x: u32) -> u32;
extern fn declassify_and_print(x: u32);

fn leak_direct(p: &Password) {
    let h = hash(p.value);
    insecure_print(h);
}

fn leak_implicit(p: &Password, guess: u32) {
    if guess == p.value {
        insecure_print(1);
    }
}

fn no_leak(s: &Session, p: &Password) {
    insecure_print(s.user);
    secure_log(p.value);
}

fn leak_variable(secret_token: u32, noise: u32) {
    insecure_print(secret_token + noise);
}

fn leak_via_declassify(p: &Password) {
    declassify_and_print(p.value);
}
"""


def make_checker(**policy_kwargs):
    policy = IfcPolicy(**policy_kwargs)
    policy.mark_type_secret("Password")
    policy.mark_function_insecure("insecure_print")
    return IfcChecker.from_source(SOURCE, policy)


@pytest.fixture(scope="module")
def checker():
    return make_checker()


def test_direct_leak_is_detected(checker):
    violations = checker.check_function("leak_direct")
    assert len(violations) == 1
    assert not violations[0].via_control_flow
    assert violations[0].sink_function == "insecure_print"
    assert "Password" in violations[0].source_description


def test_implicit_leak_via_control_flow_is_detected(checker):
    violations = checker.check_function("leak_implicit")
    assert len(violations) == 1
    assert violations[0].via_control_flow


def test_clean_function_has_no_violations(checker):
    assert checker.check_function("no_leak") == []


def test_secret_variable_policy_by_name():
    checker = make_checker()
    checker.policy.mark_variable_secret("leak_variable", "secret_token")
    violations = checker.check_function("leak_variable")
    assert len(violations) == 1
    assert "secret_token" in violations[0].source_description


def test_wildcard_variable_policy():
    policy = IfcPolicy()
    policy.mark_function_insecure("insecure_print")
    policy.secret_variables.add(("*", "secret_token"))
    checker = IfcChecker.from_source(SOURCE, policy)
    assert checker.check_function("leak_variable")


def test_policy_from_specs_reads_fn_var_and_bare_names():
    policy = IfcPolicy.from_specs(
        secret_types=["Password"],
        secret_variables=["leak_variable:secret_token", "noise"],
        sinks=["insecure_print"],
    )
    assert policy.secret_types == {"Password"}
    assert policy.secret_variables == {("leak_variable", "secret_token"), ("*", "noise")}
    assert policy.insecure_functions == {"insecure_print"}
    assert IfcPolicy.from_specs() == IfcPolicy()


def test_declassified_function_is_not_reported():
    checker = make_checker()
    checker.policy.mark_function_insecure("declassify_and_print")
    checker.policy.declassified_functions.add("declassify_and_print")
    assert checker.check_function("leak_via_declassify") == []


def test_non_declassified_extra_sink_is_reported():
    checker = make_checker()
    checker.policy.mark_function_insecure("declassify_and_print")
    violations = checker.check_function("leak_via_declassify")
    assert len(violations) == 1


def test_check_all_aggregates_program_violations(checker):
    violations = checker.check_all()
    functions = {v.fn_name for v in violations}
    assert {"leak_direct", "leak_implicit"} <= functions
    assert "no_leak" not in functions


def test_report_renders_human_readable_text(checker):
    report = render_report(checker.check_all())
    assert "insecure flow" in report
    assert "leak_direct" in report
    assert "implicit (control) flow" in report


def test_report_for_clean_program():
    policy = IfcPolicy()
    policy.mark_function_insecure("insecure_print")
    clean_source = """
    extern fn insecure_print(x: u32);
    fn hello(x: u32) { insecure_print(x); }
    """
    checker = IfcChecker.from_source(clean_source, policy)
    assert "no insecure flows" in render_report(checker.check_all())


# The ``ifc`` answer for SOURCE under the policy of the test below, byte for
# byte: checking each function once must not change it.  SOURCE is the one
# open unit, "main".
SERVED_VIOLATIONS = [
    "[leak_direct] explicit data flow from value `p` of secret type &Password "
    "into insecure operation `insecure_print` in unit 'main' at line 12",
    "[leak_implicit] implicit (control) flow from value `p` of secret type "
    "&Password into insecure operation `insecure_print` in unit 'main' at line 17",
    "[leak_variable] explicit data flow from variable `secret_token` "
    "into insecure operation `insecure_print` in unit 'main' at line 27",
    "[leak_via_declassify] explicit data flow from value `p` of secret type "
    "&Password into insecure operation `declassify_and_print` in unit 'main' at line 31",
]
SERVED_REPORT = "ifc: 4 insecure flow(s) detected\n" + "\n".join(
    "  " + line for line in SERVED_VIOLATIONS
)


def _counting_runs(monkeypatch):
    """The names of the functions each later fixpoint runs for."""
    ran = []
    real_run = FunctionFlowAnalysis.run

    def counting_run(analysis):
        ran.append(analysis.body.fn_name)
        return real_run(analysis)

    monkeypatch.setattr(FunctionFlowAnalysis, "run", counting_run)
    return ran


def test_ifc_request_analyses_each_function_once_and_a_repeat_none(monkeypatch):
    ran = _counting_runs(monkeypatch)
    service = AnalysisService()
    assert service.handle({"id": 1, "method": "open", "params": {"source": SOURCE}})["ok"]
    params = {
        "secret_types": ["Password"],
        "secret_variables": ["secret_token"],
        "sinks": ["insecure_print", "declassify_and_print"],
    }
    served = {
        "id": 2,
        "ok": True,
        "result": {"count": 4, "report": SERVED_REPORT, "violations": SERVED_VIOLATIONS},
    }
    # Every function of SOURCE calls a sink and holds a secret.
    for analysed in (service.session.function_names(), []):
        ran.clear()
        response = service.handle({"id": 2, "method": "ifc", "params": params})
        assert sorted(ran) == analysed
        del response["trace_id"]
        assert json.dumps(response, sort_keys=True) == json.dumps(served, sort_keys=True)


# Under Whole-program, `keep_first` passes on only its first argument.
EDIT_SOURCE = """
extern fn insecure_print(x: u32);

fn keep_first(a: u32, b: u32) -> u32 {
    a
}

fn leak(secret: u32, public: u32) {
    let y = keep_first(public, secret);
    insecure_print(y);
}
"""


@pytest.mark.parametrize("config", [MODULAR, WHOLE_PROGRAM], ids=["modular", "whole_program"])
def test_ifc_after_an_edit_equals_a_fresh_session(config):
    policy = {"secret_variables": ["secret"], "sinks": ["insecure_print"]}
    edited = EDIT_SOURCE.replace("keep_first(public, secret)", "keep_first(secret, public)")
    session = AnalysisSession()
    session.open_unit("main", EDIT_SOURCE)
    before = session.ifc(config=config, **policy)
    assert session.ifc(config=config, **policy) == before
    assert session.update_unit("main", edited)["body_changed"] == ["leak"]
    after = session.ifc(config=config, **policy)

    fresh = AnalysisSession()
    fresh.open_unit("main", edited)
    assert after == fresh.ifc(config=config, **policy)
    assert (before["count"], after["count"]) == ((1, 1) if config is MODULAR else (0, 1))


def test_served_violation_names_its_unit_and_the_line_inside_it():
    session = AnalysisSession()
    session.open_unit("a", "fn helper(v: u32) -> u32 {\n    v + 1\n}")
    session.open_unit(
        "b",
        "extern fn insecure_print(x: u32);\n"
        "fn leak(secret: u32) {\n"
        "    let y = helper(secret);\n"
        "    insecure_print(y);\n"
        "}",
    )
    answer = session.ifc(secret_variables=["leak:secret"], sinks=["insecure_print"])
    # The sink is on line 4 of unit b, line 7 of the joined workspace.
    assert answer["violations"] == [
        "[leak] explicit data flow from variable `secret` into insecure "
        "operation `insecure_print` in unit 'b' at line 4"
    ]
    assert answer["report"].endswith(answer["violations"][0])


def test_checker_violation_names_no_unit():
    policy = IfcPolicy.from_specs(secret_variables=["secret"], sinks=["insecure_print"])
    source = "extern fn insecure_print(x: u32);\nfn leak(secret: u32) {\n    insecure_print(secret);\n}"
    (violation,) = IfcChecker.from_source(source, policy).check_all()
    assert violation.unit is None
    assert violation.render().endswith("`insecure_print` at line 3")


@pytest.mark.parametrize(
    "policy,analysed,count",
    [
        ({"sinks": ["insecure_print"]}, [], 0),
        ({"sinks": ["helper"]}, [], 0),
        ({"secret_variables": ["a"], "sinks": ["helper"]}, ["caller"], 1),
    ],
)
def test_ifc_analyses_only_the_functions_that_call_a_sink(monkeypatch, policy, analysed, count):
    # A violation can only arise at a call to a sink that is not
    # declassified, and only from a secret place, so a function without
    # both runs no fixpoint.
    ran = _counting_runs(monkeypatch)
    session = AnalysisSession()
    session.open_unit("main", HELPER_CALLER_SOURCE)
    assert session.ifc(**policy)["count"] == count
    assert sorted(ran) == analysed


def test_policy_type_secrecy_traverses_references():
    policy = IfcPolicy()
    policy.mark_type_secret("Password")
    from repro.lang.types import RefType, StructType, Mutability

    password = StructType("Password", (("value",),))  # fields unused for the check
    assert policy.type_is_secret(password)
    assert policy.type_is_secret(RefType(password, Mutability.SHARED))
    assert not policy.type_is_secret(None)


def test_security_label_enum_values():
    assert SecurityLabel.PUBLIC.value == "public"
    assert SecurityLabel.SECRET.value == "secret"
