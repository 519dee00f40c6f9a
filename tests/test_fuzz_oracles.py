"""The oracle battery: all-pass on generated programs, failure plumbing."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.generator import generate_program, profile
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    INJECTED_ORACLES,
    OracleVerdict,
    first_failure,
    oracle_names,
    prepare,
    run_battery,
)

SWEEP = 10  # tier-1 sweep; CI's mass-eval-smoke job runs 500


# ---------------------------------------------------------------------------
# The battery passes on generated programs
# ---------------------------------------------------------------------------


def test_battery_passes_on_a_seed_sweep():
    for seed in range(SWEEP):
        program = generate_program(seed)
        verdicts = run_battery(program.source, program.crate_name, seed=seed)
        assert [v.oracle for v in verdicts] == list(DEFAULT_ORACLES)
        failing = first_failure(verdicts)
        assert failing is None, (
            f"seed {seed}: {failing.oracle} failed: {failing.detail}"
        )


def test_battery_respects_oracle_selection():
    program = generate_program(0)
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["validate", "focus_agreement"]
    )
    assert [v.oracle for v in verdicts] == ["validate", "focus_agreement"]
    assert all(v.ok for v in verdicts)


def test_unknown_oracle_name_is_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown oracle"):
        run_battery("fn f() -> u32 { 1 }", oracles=["no_such_oracle"])


def test_oracle_names_lists_injected_variants():
    names = oracle_names(include_injected=True)
    assert set(DEFAULT_ORACLES) <= set(names)
    for injected in INJECTED_ORACLES:
        assert f"injected:{injected}" in names


# ---------------------------------------------------------------------------
# Front-end failures become validate verdicts (the crash oracle)
# ---------------------------------------------------------------------------


def test_parse_failure_is_a_validate_verdict():
    verdicts = run_battery("fn f( {", crate_name="main")
    assert len(verdicts) == 1
    verdict = verdicts[0]
    assert verdict.oracle == "validate" and not verdict.ok
    assert verdict.kind() == "ParseError"


def test_type_failure_is_a_validate_verdict_with_kind():
    verdicts = run_battery("fn f() -> u32 { true }", crate_name="main")
    assert not verdicts[0].ok
    assert verdicts[0].kind() == "TypeError_"


def test_verdict_json_shape():
    verdict = OracleVerdict("validate", ok=False, detail="ParseError: nope")
    data = json.loads(json.dumps(verdict.to_json_dict()))
    assert data == {"oracle": "validate", "ok": False, "detail": "ParseError: nope"}


# ---------------------------------------------------------------------------
# Injected oracles (the pipeline self-test hooks)
# ---------------------------------------------------------------------------


def test_injected_while_loop_fires_only_on_loops():
    with_loop = """
    fn f(n: u32) -> u32 {
        let mut i = 0;
        while i < n % 4 {
            i = i + 1;
        }
        i
    }
    """
    without_loop = "fn f(n: u32) -> u32 { n + 1 }"
    failing = run_battery(with_loop, "main", oracles=["injected:while_loop"])
    assert not failing[0].ok and failing[0].kind() == "injected_while_loop"
    passing = run_battery(without_loop, "main", oracles=["injected:while_loop"])
    assert passing[0].ok


def test_injected_deref_write_fires_on_deref_assignment():
    source = """
    fn f(a: u32) -> u32 {
        let mut x = a;
        let r = &mut x;
        *r = 7;
        x
    }
    """
    failing = run_battery(source, "main", oracles=["injected:deref_write"])
    assert not failing[0].ok and failing[0].kind() == "injected_deref_write"


# ---------------------------------------------------------------------------
# Individual oracle behaviours worth pinning
# ---------------------------------------------------------------------------


def test_noninterference_oracle_runs_ref_param_functions():
    """Functions with reference parameters are interpreted, not skipped."""
    program = generate_program(1)
    prep = prepare(program.source, program.crate_name)
    entry_fns = [
        fn for fn in prep.checked.program.local.functions()
        if fn.name.startswith("entry_") and fn.body is not None
    ]
    assert entry_fns
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["noninterference"], seed=1
    )
    assert verdicts[0].ok, verdicts[0].detail


def test_cache_oracle_passes_and_uses_the_store():
    program = generate_program(2)
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["cache_equality"]
    )
    assert verdicts[0].ok, verdicts[0].detail


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_focus_agreement_checks_served_spans_and_lines(size):
    """The span and line referees of ``focus_agreement`` on a few seeds per
    size, so a mismatch fails here before CI's 500-program sweep."""
    for seed in range(3):
        program = generate_program(seed, profile(size))
        (verdict,) = run_battery(
            program.source, program.crate_name, oracles=["focus_agreement"]
        )
        assert verdict.ok, f"{size} seed {seed}: {verdict.detail}"


@pytest.mark.parametrize(
    "target,mismatch",
    [
        ("spans_of_locations", "_span_mismatch: "),
        ("span_set_to_json", "_line_mismatch: "),
    ],
)
def test_focus_agreement_catches_a_wrong_span_or_line(monkeypatch, target, mismatch):
    """Break the served path's spans (drop the last) or lines (drop the
    first): the oracle names the mismatch."""
    import repro.focus.table as table_module

    served = getattr(table_module, target)
    if target == "spans_of_locations":
        broken = lambda body, locations: served(body, locations)[:-1]
    else:
        def broken(spans, line_offset):
            out, lines = served(spans, line_offset)
            return out, lines[1:]
    monkeypatch.setattr(table_module, target, broken)
    program = generate_program(0)
    (verdict,) = run_battery(program.source, program.crate_name, oracles=["focus_agreement"])
    assert not verdict.ok
    assert mismatch in verdict.detail, verdict.detail


SHADOWING_SOURCE = "fn f(a: u32) -> u32 {\n    let s = a + 1;\n    let s = s * 2;\n    s\n}"


def test_focus_agreement_checks_a_shadowing_bindings_entry(monkeypatch):
    """Drop one location from the backward entry of the second ``s``:
    the oracle looks every binding up by its place, so it reads that
    entry and names the mismatch."""
    from repro.focus.table import FocusTable

    build = FocusTable.build.__func__

    def broken(cls, result):
        table = build(cls, result)
        (key,) = [key for key in table.data["entries"] if key.startswith("s@")]
        table.data["entries"][key]["backward"].pop()
        return table

    (verdict,) = run_battery(SHADOWING_SOURCE, oracles=["focus_agreement"])
    assert verdict.ok, verdict.detail
    monkeypatch.setattr(FocusTable, "build", classmethod(broken))
    (verdict,) = run_battery(SHADOWING_SOURCE, oracles=["focus_agreement"])
    assert not verdict.ok
    assert verdict.detail.startswith("focus_backward_mismatch: f.s: "), verdict.detail


def test_session_snapshot_is_cold_warm_byte_identical():
    """The session-level primitive behind the cache oracle."""
    from repro.service.cache import SummaryStore
    from repro.service.session import AnalysisSession

    program = generate_program(4)
    store = SummaryStore(max_entries=1 << 12)

    def snap() -> bytes:
        session = AnalysisSession(store=store, local_crate=program.crate_name)
        session.open_unit("fuzz", program.source)
        return json.dumps(
            session.snapshot(max_variables_per_function=4), sort_keys=True
        ).encode()

    assert snap() == snap()
    assert store.stats.to_dict()["hits"] > 0
